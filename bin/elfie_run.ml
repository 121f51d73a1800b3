(* elfie_run: load and execute an ELFie natively on the Vkernel machine.

     elfie_run region.elfie --sysstate /tmp/pbdir/region.sysstate --trials 3

   The sysstate directory is installed into the process's (virtual)
   working directory before the run, as if the ELFie were executed in
   the sysstate/workdir of the paper. *)

open Cmdliner

let run path sysstate_dir seed trials max_ins retries journal_path resume
    disasm () =
  let ic = open_in_bin path in
  let bytes = Bytes.of_string (really_input_string ic (in_channel_length ic)) in
  close_in ic;
  let image = Elfie_elf.Image.read ~artifact:path bytes in
  Format.printf "%a@." Elfie_elf.Image.pp image;
  if disasm then begin
    match Elfie_elf.Image.find_section image ".elfie.text" with
    | Some s ->
        print_endline "startup code:";
        List.iter
          (fun (off, ins) ->
            Printf.printf "  %8Lx: %s\n"
              (Int64.add s.addr (Int64.of_int off))
              (Elfie_isa.Insn.to_string ins))
          (Elfie_isa.Codec.disassemble s.data ~off:0 ~count:40)
    | None -> print_endline "(no .elfie.text section)"
  end;
  let fs_init fs =
    match sysstate_dir with
    | Some dir ->
        let ss = Elfie_pin.Sysstate.load_dir ~dir in
        Elfie_pin.Sysstate.install ss fs ~workdir:"/work"
    | None -> ()
  in
  let module Supervisor = Elfie_supervise.Supervisor in
  let module Journal = Elfie_supervise.Journal in
  let journal = Option.map Journal.open_file journal_path in
  for i = 0 to trials - 1 do
    let policy =
      { Supervisor.retries; base_seed = Int64.add seed (Int64.of_int i) }
    in
    let job = Printf.sprintf "%s#trial%d" (Filename.basename path) i in
    let report, outcome =
      Supervisor.run_elfie ~job ~policy ~max_ins ?journal ~resume
        ~inputs:[ path; Int64.to_string seed; string_of_int i ]
        ~fs_init ~cwd:"/work" image
    in
    if report.Supervisor.skipped then
      Printf.printf "trial %d: skipped (journalled graceful)\n" i
    else begin
      (match outcome with
      | Some o when o.Elfie_core.Elfie_runner.load_error <> None ->
          Printf.printf "trial %d: process killed by loader: %s\n" i
            (Option.get o.load_error)
      | Some o ->
          Printf.printf
            "trial %d: graceful=%b region_instructions=%Ld cpi=%.3f%s%s\n" i
            o.Elfie_core.Elfie_runner.graceful o.app_retired o.region_cpi
            (match o.fault with Some f -> " fault: " ^ f | None -> "")
            (if o.stdout = "" then ""
             else " stdout: " ^ String.escaped o.stdout)
      | None -> ());
      if report.Supervisor.quarantined || List.length report.attempts > 1 then
        Format.printf "  supervisor: %a@." Supervisor.pp_report report
    end
  done;
  let skips, saved_ms = Supervisor.resume_savings () in
  if skips > 0 then
    Printf.printf "resume: skipped %d trial(s), saved ~%.0f ms\n" skips saved_ms;
  Option.iter Journal.close journal

let cmd =
  let path =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ELFIE" ~doc:"ELFie file.")
  in
  let sysstate =
    Arg.(
      value
      & opt (some string) None
      & info [ "sysstate" ] ~docv:"DIR" ~doc:"Sysstate directory to install.")
  in
  let seed = Arg.(value & opt int64 11L & info [ "seed" ] ~doc:"Base scheduler seed.") in
  let trials = Arg.(value & opt int 1 & info [ "trials" ] ~doc:"Number of runs.") in
  let max_ins =
    Arg.(
      value & opt int64 100_000_000L
      & info [ "max-ins" ]
          ~doc:
            "Supervised instruction budget per attempt; a run stopped by \
             it classifies as a runaway and gets one retry with the \
             budget raised x4.")
  in
  let disasm =
    Arg.(value & flag & info [ "disassemble" ] ~doc:"Dump the startup code.")
  in
  Cmd.v
    (Cmd.info "elfie_run" ~doc:"run an ELFie natively (supervised)")
    (Cli.with_obs
       Term.(
         const run $ path $ sysstate $ seed $ trials $ max_ins $ Cli.retries
         $ Cli.journal $ Cli.resume $ disasm))

let () = Cli.eval cmd

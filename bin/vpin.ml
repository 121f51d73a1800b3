(* vpin: run Vpin analysis tools on a benchmark or an ELFie — the
   paper's "dynamic analysis with Pin" use case (Section III-A).

     vpin -t insmix -b 525.x264_r
     vpin -t footprint --elf region.elfie --sysstate dir
     vpin -t branchprof --elf region.elfie --limit 100000

   When the target is an ELFie, analysis starts at the ROI marker so the
   startup code is skipped, and --limit gives the graceful analysis end
   (typically the region's recorded instruction count). *)

open Cmdliner
module Tools = Elfie_pin.Tools

type which = Insmix | Footprint | Branchprof | Bbprof

let which_conv =
  Arg.enum
    [ ("insmix", Insmix); ("footprint", Footprint); ("branchprof", Branchprof);
      ("bbprof", Bbprof) ]

let analyse which bench elf sysstate limit =
  let machine, from_marker =
    match (bench, elf) with
    | Some name, None ->
        let b =
          match Elfie_workloads.Suite.find name with
          | Some b -> b
          | None ->
              Printf.eprintf "unknown benchmark %S\n" name;
              exit 2
        in
        let machine, _ =
          Elfie_pin.Run.instantiate (Elfie_workloads.Programs.run_spec b.spec)
        in
        (machine, false)
    | None, Some path ->
        let ic = open_in_bin path in
        let image =
          Elfie_elf.Image.read ~artifact:path
            (Bytes.of_string (really_input_string ic (in_channel_length ic)))
        in
        close_in ic;
        let sysstate = Option.map (fun dir -> Elfie_pin.Sysstate.load_dir ~dir) sysstate in
        let fs_init fs =
          Option.iter (fun ss -> Elfie_pin.Sysstate.install ss fs ~workdir:"/work") sysstate
        in
        (* Booted as the native runner boots an ELFie. *)
        let machine, _ =
          Elfie_pin.Run.instantiate
            (Elfie_pin.Run.spec ~argv:[ "elfie" ] ~env:[] ~fs_init ~cwd:"/work"
               ~seed:11L image)
        in
        (machine, true)
    | _ ->
        prerr_endline "pass exactly one of -b BENCH or --elf FILE";
        exit 2
  in
  let attach_and_run tool render =
    Tools.run ~from_marker ?limit ~max_ins:200_000_000L machine [ tool ];
    render ()
  in
  match which with
  | Insmix ->
      let a = Tools.instruction_mix () in
      attach_and_run a.tool (fun () ->
          Format.printf "%a@." Tools.pp_mix (a.result ()))
  | Footprint ->
      let a = Tools.memory_footprint () in
      attach_and_run a.tool (fun () ->
          Format.printf "%a@." Tools.pp_footprint (a.result ()))
  | Branchprof ->
      let a = Tools.branch_profile () in
      attach_and_run a.tool (fun () ->
          Format.printf "%a@." Tools.pp_branch_profile (a.result ()))
  | Bbprof ->
      let a = Tools.block_profile () in
      attach_and_run a.tool (fun () ->
          Format.printf "%a@." Tools.pp_block_profile (a.result ()))

let run which bench elf sysstate limit =
  match limit with
  | Some n when n < 1L ->
      `Error (true, Printf.sprintf "limit must be positive, got %Ld" n)
  | _ -> `Ok (analyse which bench elf sysstate limit)

let cmd =
  let which =
    Arg.(
      required
      & opt (some which_conv) None
      & info [ "t"; "tool" ] ~docv:"TOOL"
          ~doc:"Analysis: insmix, footprint, branchprof or bbprof.")
  in
  let bench =
    Arg.(
      value & opt (some string) None
      & info [ "b"; "benchmark" ] ~docv:"NAME" ~doc:"Analyse a suite benchmark.")
  in
  let elf =
    Arg.(
      value & opt (some string) None
      & info [ "elf" ] ~docv:"FILE" ~doc:"Analyse an ELFie (starts at its marker).")
  in
  let sysstate =
    Arg.(
      value & opt (some string) None
      & info [ "sysstate" ] ~docv:"DIR" ~doc:"Sysstate directory for the ELFie.")
  in
  let limit =
    Arg.(
      value & opt (some int64) None
      & info [ "limit" ] ~docv:"N"
          ~doc:"Stop analysis after N instructions (positive).")
  in
  Cmd.v
    (Cmd.info "vpin" ~doc:"run dynamic-analysis tools on binaries and ELFies")
    Term.(ret (const run $ which $ bench $ elf $ sysstate $ limit))

let () = Cli.eval cmd

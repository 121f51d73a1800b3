(* pinplay: the PinPlay logger/replayer CLI.

     pinplay log    -b 525.x264_r -o /tmp/pbdir --start 100000 --length 50000
     pinplay replay -d /tmp/pbdir -n <name> [--injection 0]
     pinplay run    -b 525.x264_r

   Benchmarks come from the bundled SPEC-like suite (see `pinplay list`). *)

open Cmdliner

let find_bench name =
  match Elfie_workloads.Suite.find name with
  | Some b -> b
  | None ->
      Printf.eprintf "unknown benchmark %S (try `pinplay list`)\n" name;
      exit 2

let bench_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "b"; "benchmark" ] ~docv:"NAME" ~doc:"Benchmark to execute.")

let seed_arg =
  Arg.(value & opt int64 42L & info [ "seed" ] ~doc:"Scheduler seed.")

(* --- run -------------------------------------------------------------------- *)

let run_native bench seed () =
  let b = find_bench bench in
  let stats =
    Elfie_pin.Run.native (Elfie_workloads.Programs.run_spec ~seed b.spec)
  in
  Printf.printf
    "%s: %Ld instructions, %Ld cycles, CPI %.3f, clean=%b\nstdout: %s" bench
    stats.retired stats.cycles stats.cpi stats.clean stats.stdout

let run_cmd =
  Cmd.v
    (Cmd.info "run" ~doc:"run a benchmark natively")
    (Cli.with_obs Term.(const run_native $ bench_arg $ seed_arg))

(* --- log -------------------------------------------------------------------- *)

let log_region bench seed out name start length fat sysstate () =
  let b = find_bench bench in
  let rs = Elfie_workloads.Programs.run_spec ~seed b.spec in
  let result =
    Elfie_pin.Logger.capture ~fat rs ~name { Elfie_pin.Logger.start; length }
  in
  Elfie_pinball.Pinball.save result.pinball ~dir:out;
  Format.printf "%a@." Elfie_pinball.Pinball.pp_summary result.pinball;
  if not result.reached_end then
    print_endline "warning: program ended inside the region (truncated)";
  if sysstate then begin
    let ss = Elfie_pin.Sysstate.analyze result.pinball in
    let dir = Filename.concat out (name ^ ".sysstate") in
    Elfie_pin.Sysstate.save ss ~dir;
    Format.printf "sysstate written to %s@.%a@." dir Elfie_pin.Sysstate.pp ss
  end;
  Printf.printf "pinball written to %s/%s.*\n" out name

let log_cmd =
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"DIR" ~doc:"Output pinball directory.")
  in
  let pb_name =
    Arg.(value & opt string "pinball" & info [ "n"; "name" ] ~doc:"Pinball name.")
  in
  let start =
    Arg.(
      value & opt int64 0L
      & info [ "start" ] ~doc:"Region start (aggregate instruction count).")
  in
  let length =
    Arg.(value & opt int64 100_000L & info [ "length" ] ~doc:"Region length.")
  in
  let fat =
    Arg.(
      value & opt bool true
      & info [ "log-fat" ] ~doc:"Record the whole memory image (-log:fat).")
  in
  let sysstate =
    Arg.(
      value & flag
      & info [ "sysstate" ] ~doc:"Also run pinball_sysstate and save its output.")
  in
  Cmd.v
    (Cmd.info "log" ~doc:"capture a region of execution as a pinball")
    (Cli.with_obs
       Term.(
         const log_region $ bench_arg $ seed_arg $ out $ pb_name $ start $ length
         $ fat $ sysstate))

(* --- replay ----------------------------------------------------------------- *)

let replay dir name injection no_injection () =
  let pb = Elfie_pinball.Pinball.load ~dir ~name in
  let mode =
    if injection && not no_injection then Elfie_pin.Replayer.Constrained
    else Elfie_pin.Replayer.Injectionless { seed = 7L; fs_init = (fun _ -> ()) }
  in
  let r = Elfie_pin.Replayer.replay ~mode pb in
  Printf.printf
    "replayed %Ld instructions, matched_icounts=%b, divergences=%d, cycles=%Ld%s\n"
    r.retired r.matched_icounts r.divergences r.cycles
    (if r.capped then " (stopped by instruction cap)" else "");
  match r.first_divergence with
  | Some d ->
      Printf.printf "first divergence: tid %d pc=0x%Lx icount=%Ld (%s)\n"
        d.Elfie_pin.Replayer.div_tid d.div_pc d.div_icount d.div_what
  | None -> ()

let replay_cmd =
  let dir =
    Arg.(
      required
      & opt (some string) None
      & info [ "d"; "dir" ] ~docv:"DIR" ~doc:"Pinball directory.")
  in
  let pb_name =
    Arg.(value & opt string "pinball" & info [ "n"; "name" ] ~doc:"Pinball name.")
  in
  let injection =
    Arg.(
      value & opt bool true
      & info [ "injection" ]
          ~doc:"Inject logged syscall results (0 mimics an ELFie run).")
  in
  let no_injection =
    Arg.(
      value & flag
      & info [ "no-injection" ]
          ~doc:
            "Replay without injection (the paper's -replay:injection 0): \
             syscalls re-execute natively, threads schedule freely — the \
             mode for debugging divergences.")
  in
  Cmd.v
    (Cmd.info "replay" ~doc:"replay a pinball (constrained by default)")
    (Cli.with_obs Term.(const replay $ dir $ pb_name $ injection $ no_injection))

(* --- check ------------------------------------------------------------------ *)

let check dir name do_replay fault_sweep () =
  let module Diag = Elfie_util.Diag in
  let diags =
    match Elfie_pinball.Pinball.load_result ~dir ~name with
    | Error d -> [ d ]
    | Ok pb ->
        let structural = Elfie_check.Validate.pinball pb in
        let replay =
          if do_replay && structural = [] then
            Elfie_check.Sentinel.cross_check pb
          else []
        in
        if fault_sweep then begin
          let report = Elfie_check.Fault_inject.run_pinball pb in
          Format.printf "fault sweep: %a@." Elfie_check.Fault_inject.pp_report
            report;
          if Elfie_check.Fault_inject.crashes report <> [] then exit 1
        end;
        structural @ replay
  in
  match diags with
  | [] -> Printf.printf "%s/%s.*: OK\n" dir name
  | ds ->
      List.iter (fun d -> Printf.eprintf "%s\n" (Diag.to_string d)) ds;
      exit 1

let check_cmd =
  let dir =
    Arg.(
      required
      & opt (some string) None
      & info [ "d"; "dir" ] ~docv:"DIR" ~doc:"Pinball directory.")
  in
  let pb_name =
    Arg.(value & opt string "pinball" & info [ "n"; "name" ] ~doc:"Pinball name.")
  in
  let do_replay =
    Arg.(
      value & flag
      & info [ "replay" ]
          ~doc:
            "Also run the replay divergence sentinel (constrained, then \
             injection-less).")
  in
  let fault_sweep =
    Arg.(
      value & flag
      & info [ "fault-sweep" ]
          ~doc:
            "Also corrupt the serialized pinball across every fault class and \
             verify that no corruption escapes as a crash.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"validate a pinball: parse, consistency checks, optional replay")
    (Cli.with_obs Term.(const check $ dir $ pb_name $ do_replay $ fault_sweep))

(* --- list ------------------------------------------------------------------- *)

let list_benchmarks () =
  List.iter
    (fun (b : Elfie_workloads.Suite.benchmark) ->
      Printf.printf "%-20s %d thread(s), ~%Ld instructions\n" b.bname
        b.spec.threads
        (Elfie_workloads.Programs.approx_instructions b.spec))
    Elfie_workloads.Suite.all

let list_cmd =
  Cmd.v
    (Cmd.info "list" ~doc:"list available benchmarks")
    Term.(const list_benchmarks $ const ())

let () =
  let doc = "PinPlay-style program record/replay toolkit (VX86)" in
  Cli.eval
    (Cmd.group (Cmd.info "pinplay" ~doc)
       [ run_cmd; log_cmd; replay_cmd; check_cmd; list_cmd ])

(* What the toolkit's commands share, defined once: observability and
   parallelism flags (--trace, --metrics, --profile[=N], --jobs),
   supervision flags (--journal, --resume, --retries), and how a command
   line is evaluated. *)

open Cmdliner

(* [with_obs body] adds --trace, --metrics, --profile[=N] and --jobs to
   a command whose [body] term yields its action: the action runs with
   the pool width set and the requested reports written around it. *)
let with_obs body =
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome trace_event JSON file (load it at \
             ui.perfetto.dev or chrome://tracing).")
  in
  let metrics =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Write a Prometheus text exposition of all metrics and print \
             the summary table.")
  in
  let profile =
    Arg.(
      value
      & opt ~vopt:(Some 97) (some int) None
      & info [ "profile" ] ~docv:"N"
          ~doc:
            "Sample the PC every N retired instructions (default 97) and \
             print the top-K hot-region report.")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs" ] ~docv:"N"
          ~doc:
            "Run up to N independent jobs (trials, region measurements, \
             experiments' benchmarks, manifest jobs) concurrently on \
             separate domains; 0 means the host's recommended domain \
             count. Results are identical at any value.")
  in
  let run trace metrics profile jobs action =
    Elfie_util.Pool.set_default_jobs
      (if jobs = 0 then Elfie_util.Pool.recommended () else jobs);
    Elfie_obs.Report.with_reporting ?trace ?metrics ?profile action
  in
  Term.(const run $ trace $ metrics $ profile $ jobs $ body)

let journal =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"FILE"
        ~doc:"Append one supervised job record per job to FILE.")

let resume =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "Skip jobs whose latest journal record is graceful with \
           unchanged inputs; only unfinished or failed ones run. \
           Requires $(b,--journal).")

let retries =
  Arg.(
    value & opt int 2
    & info [ "retries" ]
        ~doc:
          "Supervisor retry budget per job for transient failures (stack \
           collisions, syscall failures).")

(* [exit_with name status] exits with [status ()]. An input that is
   missing or unreadable (a [Diag.Error] from an artifact reader, a
   [Sys_error] from opening a file) is the user's error, not an internal
   one: its message is printed and the status is 1. *)
let exit_with name status =
  let fail msg =
    Printf.eprintf "%s: %s\n" name msg;
    1
  in
  exit
    (match status () with
    | status -> status
    | exception Elfie_util.Diag.Error d -> fail (Elfie_util.Diag.to_string d)
    | exception Sys_error msg -> fail msg)

(* Evaluate a command line and exit: [eval] for a command whose action
   returns nothing, [eval'] for one that returns its exit status. *)
let eval cmd = exit_with (Cmd.name cmd) (fun () -> Cmd.eval ~catch:false cmd)
let eval' cmd = exit_with (Cmd.name cmd) (fun () -> Cmd.eval' ~catch:false cmd)

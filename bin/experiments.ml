(* Run any of the paper's tables/figures by id; `all` regenerates the
   full evaluation. Each experiment executes as a supervised job: crashes
   are classified and quarantined instead of killing the batch, and with
   --journal/--resume a killed batch picks up where it left off,
   skipping experiments already journalled as graceful. *)

open Cmdliner
module Supervisor = Elfie_supervise.Supervisor
module Journal = Elfie_supervise.Journal
module Classify = Elfie_supervise.Classify

let run_ids ids retries journal_path resume (trace, metrics, profile, jobs) =
  Elfie_util.Pool.set_default_jobs
    (if jobs = 0 then Elfie_util.Pool.recommended () else jobs);
  Elfie_obs.Report.with_reporting ?trace ?metrics ?profile @@ fun () ->
  let targets =
    match ids with
    | [ "all" ] | [] -> Elfie_harness.Registry.all
    | ids ->
        List.map
          (fun id ->
            match Elfie_harness.Registry.find id with
            | Some e -> e
            | None ->
                Printf.eprintf "unknown experiment %S; available: %s\n" id
                  (String.concat ", " Elfie_harness.Registry.ids);
                exit 2)
          ids
  in
  let journal = Option.map Journal.open_file journal_path in
  let policy = { Supervisor.default_policy with retries } in
  let reports =
    List.map
      (fun (e : Elfie_harness.Registry.experiment) ->
        fst
          (Supervisor.supervise ~job:e.id ~policy ?journal ~resume
             ~inputs:[ e.id; e.title ]
             (fun ~seed:_ ~max_ins:_ ->
               Printf.printf "=== %s: %s ===\n%!" e.id e.title;
               let t0 = Unix.gettimeofday () in
               print_string (e.run ());
               Printf.printf "(%.1f s)\n\n%!" (Unix.gettimeofday () -. t0);
               ((), Classify.Graceful))))
      targets
  in
  let quarantined =
    List.filter (fun (r : Supervisor.report) -> r.quarantined) reports
  in
  List.iter
    (fun (r : Supervisor.report) ->
      if r.skipped then
        Printf.printf "=== %s: skipped (journalled graceful) ===\n\n" r.job
      else if r.quarantined then
        Format.printf "=== %s: QUARANTINED — %a ===@.@." r.job
          Supervisor.pp_report r)
    reports;
  let skips, saved_ms = Supervisor.resume_savings () in
  if skips > 0 then
    Printf.printf "resume: skipped %d experiment(s), saved ~%.0f ms\n" skips
      saved_ms;
  Option.iter Journal.close journal;
  if quarantined <> [] then begin
    Printf.printf "%d experiment(s) quarantined; re-run with --journal/--resume \
                   to retry only those.\n"
      (List.length quarantined);
    exit 1
  end

let ids_arg =
  let doc = "Experiment ids (fig9, fig10, fig11, table1..table5) or 'all'." in
  Arg.(value & pos_all string [ "all" ] & info [] ~docv:"ID" ~doc)

let retries_arg =
  Arg.(
    value & opt int 2
    & info [ "retries" ]
        ~doc:"Supervisor retry budget per experiment for transient failures.")

let journal_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"FILE"
        ~doc:"Append one supervised record per experiment to this file.")

let resume_arg =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "Skip experiments whose latest journal record is graceful; \
           previously failed or interrupted ones re-run. Requires \
           $(b,--journal).")

(* Shared observability flags: --trace/--metrics/--profile[=N]. *)
let obs_flags =
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
            "Run up to N independent machine executions (trials, per-rank \
             region measurements, Fig. 9 benchmarks) concurrently on \
             separate domains; 0 means the host's recommended domain \
             count. Results are identical at any value.")
  in
  Term.(const (fun t m p j -> (t, m, p, j)) $ trace $ metrics $ profile $ jobs)

let cmd =
  let doc = "regenerate the ELFies paper's evaluation tables and figures" in
  Cmd.v (Cmd.info "experiments" ~doc)
    Term.(
      const run_ids $ ids_arg $ retries_arg $ journal_arg $ resume_arg
      $ obs_flags)

let () = exit (Cmd.eval cmd)

(* Run any of the paper's tables/figures by id; `all` regenerates the
   full evaluation. Each experiment executes as a supervised job: crashes
   are classified and quarantined instead of killing the batch, and with
   --journal/--resume a killed batch picks up where it left off,
   skipping experiments already journalled as graceful. *)

open Cmdliner
module Supervisor = Elfie_supervise.Supervisor
module Journal = Elfie_supervise.Journal
module Classify = Elfie_supervise.Classify

let run_ids ids retries journal_path resume () =
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

let cmd =
  let doc = "regenerate the ELFies paper's evaluation tables and figures" in
  Cmd.v (Cmd.info "experiments" ~doc)
    (Cli.with_obs
       Term.(const run_ids $ ids_arg $ Cli.retries $ Cli.journal $ Cli.resume))

let () = Cli.eval cmd

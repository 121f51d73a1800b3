(* Determinism guard behind @bench-e2e-smoke (part of `dune runtest`):
   every workload at smoke size, seed 1, must give one digest at
   --jobs 1, at --jobs 2 and with tracing on, and that digest must be the
   committed one. Observation and parallelism must not change results.
   The traced pass must also yield exactly the per-layer metrics
   BENCHMARK.json declares. *)

module Trace = Elfie_obs.Trace

let () =
  Layers.check ();
  let ok =
    List.map
      (fun (w : Work.t) ->
        let inst = w.setup Work.Smoke ~seed:1 in
        let pass ~jobs ~traced =
          Trace.reset ();
          Trace.set_enabled traced;
          let before = Layers.snapshot () in
          let t0 = Unix.gettimeofday () in
          let p = inst.run_pass ~jobs in
          let wall = Unix.gettimeofday () -. t0 in
          Trace.set_enabled false;
          if traced then begin
            let layers =
              Layers.of_pass ~jobs ~wall ~events:(Trace.events ())
                ~counts:(Layers.delta before (Layers.snapshot ()))
                ~work:p.work
            in
            Declared.check ~what:w.name Declared.per_layer
              ("trace.overhead_pct" :: List.map fst layers)
          end;
          p
        in
        let passes =
          [ ("jobs=1", pass ~jobs:1 ~traced:false);
            ("jobs=2", pass ~jobs:2 ~traced:false);
            ("jobs=2 traced", pass ~jobs:2 ~traced:true) ]
        in
        let expected = Work.expected ~workload:w.name ~size:Work.Smoke ~seed:1 in
        List.fold_left
          (fun ok (label, (p : Work.pass)) ->
            let d = Work.digest inst p in
            let good = expected = Some d && p.failed = 0 in
            Printf.printf "%-17s %-14s %s %d/%d failed%s\n" w.name label d p.failed
              p.attempted
              (if good then ""
               else
                 Printf.sprintf "  <- expected %s"
                   (Option.value ~default:"(none committed)" expected));
            ok && good)
          true passes)
      Workloads.all
    |> List.for_all Fun.id
  in
  if not ok then begin
    prerr_endline
      "bench-e2e-smoke: digests differ (see bench/e2e/README.md, \"Updating \
       expected digests\")";
    exit 1
  end

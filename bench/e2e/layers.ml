(* Per-layer metrics of a traced pass.

   Three sources: busy seconds of spans the library already emits,
   summed per span name; deltas of library counters read through
   [Metrics]; and the bench-side spans ([bench.*]) around calls into
   public functions that have no span of their own.

   [Trace] records no domain id and keeps one global nesting counter, so
   with two pool workers a span's depth and its self time are not
   reliable. Only the summed inclusive durations of leaf-level spans are
   used; [attributed] lists spans that never nest inside one another. *)

module Trace = Elfie_obs.Trace
module Metrics = Elfie_obs.Metrics

(* Where each metric belongs: the repository module it measures, the
   end-to-end metric it should move and on which workloads. Names,
   units and directions are BENCHMARK.json's (see [Declared]). *)
type place = { layer : string; moves : string; on : string }

let pinpoints = "pinpoints-*"

let places =
  let p name layer moves on = (name, { layer; moves; on }) in
  [ p "pool.util" "lib/util/pool" "wall_s" "all";
    p "program.max_s" "lib/util/pool" "wall_s" "all";
    p "unattributed.busy_s" "lib/harness" "wall_s" pinpoints;
    p "native_whole.busy_s" "lib/machine+lib/perf" "wall_s" "pinpoints-native";
    p "native_whole.mips" "lib/machine+lib/perf" "wall_s" "pinpoints-native";
    p "bbv.busy_s" "lib/pin/bbv" "wall_s" "pinpoints-native";
    p "bbv.mips" "lib/pin/bbv" "wall_s" "pinpoints-native";
    p "simpoint.busy_s" "lib/simpoint" "wall_s" "pinpoints-native";
    p "kmeans.distance_evals" "lib/simpoint" "wall_s" "pinpoints-native";
    p "runner.warm.busy_s" "lib/core/elfie_runner" "wall_s" pinpoints;
    p "runner.region.busy_s" "lib/core/elfie_runner" "wall_s" pinpoints;
    p "runner.run.busy_s" "lib/core/elfie_runner" "wall_s" "record-replay";
    p "snapshot.forks" "lib/core/elfie_runner" "wall_s, peak_rss_mb" pinpoints;
    p "snapshot.cow_page_copies" "lib/core/elfie_runner" "wall_s, peak_rss_mb" pinpoints;
    p "supervisor.attempts" "lib/supervise" "wall_s, coverage_pct" pinpoints;
    p "supervisor.retries" "lib/supervise" "wall_s, coverage_pct" pinpoints;
    p "coresim.busy_s" "lib/coresim" "wall_s" "pinpoints-sim, mt-sim";
    p "coresim.sim_mips" "lib/coresim" "wall_s" "pinpoints-sim, mt-sim";
    p "logger.busy_s" "lib/pin/logger" "wall_s" "record-replay, mt-sim";
    p "logger.mips" "lib/pin/logger" "wall_s" "record-replay, mt-sim";
    p "replayer.busy_s" "lib/pin/replayer" "wall_s" "record-replay";
    p "replayer.mips" "lib/pin/replayer" "wall_s" "record-replay";
    p "replayer.divergences" "lib/pin/replayer" "failed ops" "record-replay";
    p "sysstate.ms_per_region" "lib/pin/sysstate" "wall_s" "record-replay";
    p "pinball2elf.ms_per_region" "lib/core/pinball2elf" "wall_s" "record-replay";
    p "elf.roundtrip_ms_per_region" "lib/elf" "wall_s" "record-replay";
    p "sniper.busy_s" "lib/sniper" "wall_s" "mt-sim";
    p "sniper.sim_mips" "lib/sniper" "wall_s" "mt-sim";
    p "sniper.end_condition.busy_s" "lib/sniper" "wall_s" "mt-sim";
    p "gem5.busy_s" "lib/gem5" "wall_s" "mt-sim";
    p "gem5.sim_mips" "lib/gem5" "wall_s" "mt-sim";
    p "trace.overhead_pct" "lib/obs" "none (must stay small)" "all" ]

let check () =
  Declared.check ~what:"per-layer metrics" Declared.per_layer (List.map fst places)

(* Library counters read as deltas around a pass. *)
let counters =
  let c = Metrics.counter in
  let sim backend =
    ( "sim_ins." ^ backend,
      fun () ->
        Metrics.value ~labels:[ ("backend", backend) ]
          (c "elfie_sim_instructions_total") )
  in
  let total key name = (key, fun () -> Metrics.total (c name)) in
  [ total "bbv_ins" "elfie_bbv_instructions_total";
    total "distance_evals" "elfie_kmeans_distance_evals_total";
    total "forks" "elfie_snapshot_forks_total";
    total "cow_copies" "elfie_snapshot_cow_page_copies_total";
    total "attempts" "elfie_run_attempts_total";
    total "retries" "elfie_retry_attempts_total";
    total "divergences" "elfie_replay_divergences_total";
    sim "coresim"; sim "sniper"; sim "gem5" ]

let snapshot () = List.map (fun (k, f) -> (k, f ())) counters

let delta before after =
  List.map2 (fun (k, a) (_, b) -> (k, b -. a)) before after

(* Spans that never nest inside one another, so their busy times add. *)
let attributed =
  [ "pipeline.native_whole"; "bbv.collect"; "simpoint.project";
    "simpoint.cluster"; "runner.warm"; "runner.region"; "coresim.simulate";
    "sniper.simulate"; "gem5.simulate"; "replay.constrained"; "bench.logger";
    "bench.sysstate"; "bench.pinball2elf"; "bench.elf_roundtrip";
    "bench.sniper.end_condition" ]

let durations events name =
  List.filter_map
    (function
      | Trace.Span s when s.name = name -> Some (s.dur /. 1e6)
      | Trace.Span _ | Trace.Instant _ -> None)
    events

let busy events name = List.fold_left ( +. ) 0.0 (durations events name)

(* A layer a workload does not use reads 0: no busy time, no count, and
   a rate of 0 over no work. Work counted without busy time means a span
   went missing, which is a fault, not a 0. *)
let per f ~by =
  if by > 0.0 then f /. by
  else if f = 0.0 then 0.0
  else invalid_arg "Layers.per: work counted in a layer with no busy time"

let get k kvs = Option.value ~default:0.0 (List.assoc_opt k kvs)

(* The stages bench-side spans time directly: the logger and the
   sysstate -> pinball2elf -> ELF chain. *)
let stages events work =
  let regions = get "regions" work in
  let logger = busy events "bench.logger" in
  [ ("logger.busy_s", logger);
    ("logger.mips", per (get "logger_ins" work /. 1e6) ~by:logger);
    ("sysstate.ms_per_region", per (1e3 *. busy events "bench.sysstate") ~by:regions);
    ( "pinball2elf.ms_per_region",
      per (1e3 *. busy events "bench.pinball2elf") ~by:regions );
    ( "elf.roundtrip_ms_per_region",
      per (1e3 *. busy events "bench.elf_roundtrip") ~by:regions ) ]

let of_pass ~jobs ~wall ~events ~counts ~work =
  let busy = busy events in
  let mips ins span = per (ins /. 1e6) ~by:(busy span) in
  let program = busy "bench.program" in
  let attributed = List.fold_left (fun acc n -> acc +. busy n) 0.0 attributed in
  [ ("pool.util", per program ~by:(wall *. float_of_int jobs));
    ( "program.max_s",
      List.fold_left Float.max 0.0 (durations events "bench.program") );
    ("unattributed.busy_s", program -. attributed);
    ("native_whole.busy_s", busy "pipeline.native_whole");
    ("native_whole.mips", mips (get "native_ins" work) "pipeline.native_whole");
    ("bbv.busy_s", busy "bbv.collect");
    ("bbv.mips", mips (get "bbv_ins" counts) "bbv.collect");
    ("simpoint.busy_s", busy "simpoint.project" +. busy "simpoint.cluster");
    ("kmeans.distance_evals", get "distance_evals" counts);
    ("runner.warm.busy_s", busy "runner.warm");
    ("runner.region.busy_s", busy "runner.region");
    ("runner.run.busy_s", busy "bench.runner.run");
    ("snapshot.forks", get "forks" counts);
    ("snapshot.cow_page_copies", get "cow_copies" counts);
    ("supervisor.attempts", get "attempts" counts);
    ("supervisor.retries", get "retries" counts);
    ("coresim.busy_s", busy "coresim.simulate");
    ("coresim.sim_mips", mips (get "sim_ins.coresim" counts) "coresim.simulate");
    ("replayer.busy_s", busy "replay.constrained");
    ("replayer.mips", mips (get "replay_ins" work) "replay.constrained");
    ("replayer.divergences", get "divergences" counts);
    ("sniper.busy_s", busy "sniper.simulate");
    ("sniper.sim_mips", mips (get "sim_ins.sniper" counts) "sniper.simulate");
    ("sniper.end_condition.busy_s", busy "bench.sniper.end_condition");
    ("gem5.busy_s", busy "gem5.simulate");
    ("gem5.sim_mips", mips (get "sim_ins.gem5" counts) "gem5.simulate") ]
  @ stages events work

(* Benchmark harness.

   Part 1 — subsystem microbenchmarks (machine core, SimPoint front end,
   snapshots, farm store), each written to its BENCH_*.json file.

   Part 2 — regenerates every table and figure via the experiment
   registry and prints them, so `dune exec bench/main.exe` reproduces
   the paper's whole evaluation. Per-layer pipeline timings live in
   bench/e2e. *)

module Json = Elfie_obs.Json

(* Every BENCH_*.json file is {"benchmarks": [row, ...]}, one row object
   per line so successive revisions diff row by row. *)
let write_bench file rows =
  let oc = open_out file in
  Printf.fprintf oc "{\n  \"benchmarks\": [\n%s\n  ]\n}\n"
    (String.concat ",\n"
       (List.map (fun row -> "    " ^ Json.to_string (Json.Obj row)) rows));
  close_out oc

let int n = Json.Num (float_of_int n)

(* Wall times at microsecond resolution. *)
let secs s = Json.Num (Float.round (s *. 1e6) /. 1e6)

(* A throughput row: instructions retired in the best of [trials], and
   optionally the minor-heap words that run allocated per instruction. *)
let rate_row ?minor_words name ins wall trials =
  [ ("name", Json.Str name);
    ("ins_per_sec", Json.Num (Float.round (Int64.to_float ins /. wall)));
    ("wall_s", secs wall);
    ("instructions", Json.Num (Int64.to_float ins));
    ("trials", int trials) ]
  @
  match minor_words with
  | None -> []
  | Some w ->
      [ ( "minor_words_per_ins",
          Json.Num (Float.round (w /. Int64.to_float ins *. 1000.) /. 1000.) ) ]

(* --- machine-core microbenchmark (BENCH_core.json) ---------------------

   Retired instructions/second on a stream+branchy kernel, hook-free
   (the superblock chain tier) and with a before-call on every
   instruction (instrumented translations), and simulated
   instructions/second of each timing model on a region of the same
   program, with the minor-heap words each run allocates per
   instruction, and the native timing model's data accesses/second
   alone, for the best and the median trial. Written to BENCH_core.json
   so future PRs have a perf trajectory to compare against. *)

let core_kernels =
  ref
    [ { Elfie_workloads.Programs.kernel = Elfie_workloads.Kernels.Stream;
        reps = 4000 };
      { kernel = Elfie_workloads.Kernels.Branchy; reps = 4000 } ]

let core_spec () =
  Elfie_workloads.Programs.spec ~phases:!core_kernels ~outer_reps:200 ~threads:1
    ~ws_bytes:65536 "core"

let core_max_ins = 4_000_000L

let run_core ~hooks ~seed =
  let rs = Elfie_workloads.Programs.run_spec ~seed (core_spec ()) in
  let machine, _kernel = Elfie_pin.Run.instantiate rs in
  if hooks then begin
    let counted = ref 0 in
    let count =
      { Elfie_machine.Machine.no_callouts with before = Some (fun _ -> incr counted) }
    in
    let tool =
      {
        (Elfie_pin.Pintool.empty ~name:"bench-count") with
        instrument = Some (fun _ _ -> count);
      }
    in
    let (_ : unit -> unit) = Elfie_pin.Pintool.attach machine [ tool ] in
    ()
  end;
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  Elfie_machine.Machine.run ~max_ins:core_max_ins machine;
  let wall = Unix.gettimeofday () -. t0 in
  let words = Gc.minor_words () -. w0 in
  (Elfie_machine.Machine.total_retired machine, wall, words)

(* The simulators on a region of the same program: its pinball and a
   marker-armed ELFie of it (one thread, so Sniper models one core). *)
let sim_region_length = 1_000_000L

let sim_region =
  lazy
    (let rs = Elfie_workloads.Programs.run_spec ~seed:100L (core_spec ()) in
     let cap =
       Elfie_pin.Logger.capture rs ~name:"core"
         { Elfie_pin.Logger.start = 20_000L; length = sim_region_length }
     in
     let pb = cap.Elfie_pin.Logger.pinball in
     ( pb,
       Elfie_core.Pinball2elf.convert
         ~options:
           { Elfie_core.Pinball2elf.default_options with
             marker = Some (Elfie_core.Pinball2elf.Ssc 1L) }
         pb ))

(* Simulated instructions of one run of a simulator, timed with the
   minor-heap words it allocates. *)
let run_sim sim =
  let pb, image = Lazy.force sim_region in
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let ins = sim pb image in
  let wall = Unix.gettimeofday () -. t0 in
  (ins, wall, Gc.minor_words () -. w0)

let sims =
  let sniper = Elfie_sniper.Sniper.gainestown ~cores:1 in
  [ ( "sim/coresim",
      fun _ image ->
        (Elfie_coresim.Coresim.simulate Elfie_coresim.Coresim.skylake image)
          .Elfie_coresim.Coresim.user_instructions );
    ( "sim/gem5",
      fun _ image ->
        (Elfie_gem5.Gem5.simulate_se Elfie_gem5.Gem5.nehalem image)
          .Elfie_gem5.Gem5.instructions );
    ( "sim/sniper-elfie",
      fun _ image ->
        (Elfie_sniper.Sniper.simulate_elfie sniper image)
          .Elfie_sniper.Sniper.instructions );
    ( "sim/sniper-pinball",
      fun pb _ ->
        (Elfie_sniper.Sniper.simulate_pinball sniper pb)
          .Elfie_sniper.Sniper.instructions ) ]

(* The native timing model alone: the data accesses of one
   [core/chained] run (the first byte's {!Elfie_machine.Cache.key} of
   every read and write, in order), recorded once through a pintool and
   replayed through [Timing.mem_cost] on a fresh model in each trial.
   The cycle sum pins what the model charged. *)
let timing_keys =
  lazy
    (let rs = Elfie_workloads.Programs.run_spec ~seed:100L (core_spec ()) in
     let machine, _kernel = Elfie_pin.Run.instantiate rs in
     let keys = Buffer.create (1 lsl 20) in
     let note _tid key _last = Buffer.add_int64_ne keys (Int64.of_int key) in
     let access =
       { Elfie_machine.Machine.no_callouts with read = Some note; write = Some note }
     in
     let tool =
       {
         (Elfie_pin.Pintool.empty ~name:"bench-keys") with
         instrument = Some (fun _ _ -> access);
       }
     in
     let (_ : unit -> unit) = Elfie_pin.Pintool.attach machine [ tool ] in
     Elfie_machine.Machine.run ~max_ins:core_max_ins machine;
     Buffer.contents keys)

(* Penalty cycles of the recorded accesses on a fresh model. *)
let replay_keys keys =
  let tm = Elfie_machine.Timing.create () in
  let cycles = ref 0 in
  for i = 0 to (String.length keys / 8) - 1 do
    cycles :=
      !cycles
      + Elfie_machine.Timing.mem_cost tm
          (Int64.to_int (String.get_int64_ne keys (i * 8)))
  done;
  !cycles

let run_timing () =
  let keys = Lazy.force timing_keys in
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  ignore (replay_keys keys);
  let wall = Unix.gettimeofday () -. t0 in
  (Int64.of_int (String.length keys / 8), wall, Gc.minor_words () -. w0)

let core_bench () =
  let trials = 5 in
  (* All phases measured interleaved (phase A trial 1, phase B trial 1,
     ..., phase A trial 2, ...) so no phase systematically benefits from
     cache/frequency warm-up over another. *)
  let phases =
    [ ("core/chained", fun seed -> run_core ~hooks:false ~seed);
      ("core/with-ins-hook", fun seed -> run_core ~hooks:true ~seed) ]
    @ List.map (fun (name, sim) -> (name, fun _ -> run_sim sim)) sims
    @ [ ("timing/replay", fun _ -> run_timing ()) ]
  in
  let runs = Hashtbl.create 8 in
  for i = 0 to trials - 1 do
    List.iter
      (fun (name, run) ->
        let r = run (Int64.of_int (100 + i)) in
        Hashtbl.replace runs name
          (r :: Option.value ~default:[] (Hashtbl.find_opt runs name)))
      phases
  done;
  print_endline "=== Machine-core microbenchmark ===";
  let rows =
    List.map
      (fun (name, _) ->
        let by_wall =
          List.sort (fun (_, a, _) (_, b, _) -> compare a b) (Hashtbl.find runs name)
        in
        let ins, best_wall, words = List.hd by_wall in
        if name = "timing/replay" then begin
          (* The median trial beside the best: the row's own spread. *)
          let _, median_wall, _ = List.nth by_wall (trials / 2) in
          let cycles = replay_keys (Lazy.force timing_keys) in
          let rate wall = Float.round (Int64.to_float ins /. wall) in
          Printf.printf
            "%-28s %12.0f acc/s  (median %.0f; %Ld accesses, best of %d, %.3f s, \
             %d cycles)\n%!"
            name (rate best_wall) (rate median_wall) ins trials best_wall
            cycles;
          [ ("name", Json.Str name);
            ("accesses_per_sec", Json.Num (rate best_wall));
            ("median_accesses_per_sec", Json.Num (rate median_wall));
            ("wall_s", secs best_wall);
            ("median_wall_s", secs median_wall);
            ("accesses", Json.Num (Int64.to_float ins));
            ("cycles", int cycles);
            ("trials", int trials) ]
        end
        else begin
          let ips = Int64.to_float ins /. best_wall in
          Printf.printf
            "%-28s %12.0f ins/s  (%Ld ins, best of %d, %.3f s, %.2f words/ins)\n%!"
            name ips ins trials best_wall
            (words /. Int64.to_float ins);
          rate_row ~minor_words:words name ins best_wall trials
        end)
      phases
  in
  write_bench "BENCH_core.json" rows;
  Printf.printf "wrote BENCH_core.json (jobs default: %d)\n\n%!"
    (Elfie_util.Pool.default_jobs ())

(* --- SimPoint front-end microbenchmark (BENCH_simpoint.json) -----------

   Profile-stage instructions/second with the per-instruction reference
   BBV tool vs the block-driven (hook-free) collector, plus the k-means
   model-selection sweep's wall time at jobs=1 vs the pool default.
   Written to BENCH_simpoint.json next to BENCH_core.json. *)

let simpoint_max_ins = 2_000_000L
let simpoint_slice = 10_000L

let run_profile ~per_ins ~seed =
  let rs = Elfie_workloads.Programs.run_spec ~seed (core_spec ()) in
  let t0 = Unix.gettimeofday () in
  let p =
    if per_ins then
      Elfie_test_support.Bbv_ref.profile_per_ins ~max_ins:simpoint_max_ins rs
        ~slice_size:simpoint_slice
    else
      Elfie_pin.Bbv.profile ~max_ins:simpoint_max_ins rs
        ~slice_size:simpoint_slice
  in
  (p, Unix.gettimeofday () -. t0)

let simpoint_bench () =
  let trials = 3 in
  print_endline "=== SimPoint front-end microbenchmark ===";
  let bench_profile name per_ins =
    let runs =
      List.init trials (fun i ->
          run_profile ~per_ins ~seed:(Int64.of_int (100 + i)))
    in
    let ins, best_wall =
      List.fold_left
        (fun (bi, bw) ((p : Elfie_pin.Bbv.profile), w) ->
          if w < bw then (p.total_instructions, w) else (bi, bw))
        (0L, infinity) runs
    in
    let ips = Int64.to_float ins /. best_wall in
    Printf.printf "%-32s %12.0f ins/s  (%Ld ins, best of %d, %.3f s)\n%!" name
      ips ins trials best_wall;
    rate_row name ins best_wall trials
  in
  let per_ins_row = bench_profile "simpoint/profile-per-ins" true in
  let block_row = bench_profile "simpoint/profile-block-driven" false in
  let p, _ = run_profile ~per_ins:false ~seed:100L in
  let points = Elfie_simpoint.Simpoint.project_profile ~dims:15 p in
  let cluster jobs =
    let rng = Elfie_util.Rng.create 7L in
    let t0 = Unix.gettimeofday () in
    let r = Elfie_simpoint.Kmeans.best ~jobs ~rng ~max_k:30 points in
    (r, Unix.gettimeofday () -. t0)
  in
  let r1, w1 = cluster 1 in
  let jobs_n = max 2 (Elfie_util.Pool.default_jobs ()) in
  let rn, wn = cluster jobs_n in
  if
    r1.Elfie_simpoint.Kmeans.k <> rn.Elfie_simpoint.Kmeans.k
    || r1.Elfie_simpoint.Kmeans.assignments
       <> rn.Elfie_simpoint.Kmeans.assignments
  then Printf.printf "WARNING: Kmeans.best differs across --jobs settings\n%!";
  let cluster_row name jobs (r : Elfie_simpoint.Kmeans.result) wall =
    Printf.printf "%-32s %10.4f s  (k=%d over %d points, jobs=%d)\n%!" name
      wall r.k (Array.length points) jobs;
    [ ("name", Json.Str name);
      ("wall_s", secs wall);
      ("k", int r.k);
      ("points", int (Array.length points));
      ("jobs", int jobs) ]
  in
  let c1_row = cluster_row "simpoint/cluster-jobs-1" 1 r1 w1 in
  let cn_row = cluster_row "simpoint/cluster-jobs-N" jobs_n rn wn in
  write_bench "BENCH_simpoint.json" [ per_ins_row; block_row; c1_row; cn_row ];
  print_endline "wrote BENCH_simpoint.json\n"

(* --- Snapshot microbenchmark (BENCH_snapshot.json) ---------------------

   The copy-on-write warm-once/fork-many trial methodology against the
   baseline it replaces: N region trials, each either forked off one
   warmed capture (Elfie_runner.warm + resume) or run from scratch with
   its own warmup (Elfie_runner.run). The region is mostly warmup
   (300k-instruction region, mark at 270k), as the paper's regions are,
   so re-warming dominates the baseline's cost. Interleaved best-of-5;
   written to BENCH_snapshot.json. The @snapshot runtest guard checks
   the same property on a smaller workload. *)

let snapshot_trials = 8
let snapshot_rounds = 5

let snapshot_image () =
  let spec =
    Elfie_workloads.Programs.spec
      ~phases:
        [ { Elfie_workloads.Programs.kernel = Elfie_workloads.Kernels.Stream;
            reps = 4000 };
          { kernel = Elfie_workloads.Kernels.Branchy; reps = 4000 } ]
      ~outer_reps:50 ~threads:1 ~ws_bytes:65536 "bench_snap"
  in
  let rs = Elfie_workloads.Programs.run_spec ~seed:7L spec in
  let cap =
    Elfie_pin.Logger.capture rs ~name:"bench_snap"
      { Elfie_pin.Logger.start = 20_000L; length = 300_000L }
  in
  Elfie_core.Pinball2elf.convert
    ~options:
      { Elfie_core.Pinball2elf.default_options with
        marker = Some (Elfie_core.Pinball2elf.Ssc 1L);
        warmup_mark = Some 270_000L }
    cap.Elfie_pin.Logger.pinball

let snapshot_bench () =
  print_endline
    "=== Snapshot microbenchmark (warm-once/fork-many vs re-warm) ===";
  let image = snapshot_image () in
  let warn name (o : Elfie_core.Elfie_runner.outcome) =
    if not o.Elfie_core.Elfie_runner.graceful then
      Printf.printf "WARNING: %s trial not graceful (%s)\n%!" name
        (Option.value ~default:"?" o.Elfie_core.Elfie_runner.fault)
  in
  let rewarm () =
    let t0 = Unix.gettimeofday () in
    for i = 0 to snapshot_trials - 1 do
      warn "re-warm"
        (Elfie_core.Elfie_runner.run ~seed:(Int64.of_int (3000 + i)) image)
    done;
    Unix.gettimeofday () -. t0
  in
  let warm_fork () =
    let t0 = Unix.gettimeofday () in
    (match Elfie_core.Elfie_runner.warm ~seed:3000L image with
    | Ok w ->
        for i = 0 to snapshot_trials - 1 do
          warn "forked"
            (Elfie_core.Elfie_runner.resume ~seed:(Int64.of_int (3000 + i)) w)
        done
    | Error _ -> Printf.printf "WARNING: warm failed (no mark?)\n%!");
    Unix.gettimeofday () -. t0
  in
  let best_fork = ref infinity and best_rewarm = ref infinity in
  (* Interleaved, alternating which leg goes first each round, so
     neither systematically benefits from cache/frequency warm-up. *)
  for r = 0 to snapshot_rounds - 1 do
    let legs =
      if r land 1 = 0 then [ (best_fork, warm_fork); (best_rewarm, rewarm) ]
      else [ (best_rewarm, rewarm); (best_fork, warm_fork) ]
    in
    List.iter (fun (best, leg) -> best := min !best (leg ())) legs
  done;
  let pages =
    match Elfie_core.Elfie_runner.warm ~seed:3000L image with
    | Ok w -> Elfie_core.Elfie_runner.warmed_pages w
    | Error _ -> 0
  in
  let speedup = !best_rewarm /. !best_fork in
  let row name wall =
    Printf.printf "%-28s %10.3f s total  %8.1f ms/trial  (best of %d)\n%!"
      name wall
      (1000.0 *. wall /. float_of_int snapshot_trials)
      snapshot_rounds;
    [ ("name", Json.Str name);
      ("wall_s", secs wall);
      ("trials", int snapshot_trials);
      ("rounds", int snapshot_rounds) ]
  in
  let fork_row = row "snapshot/warm-and-fork" !best_fork in
  let rewarm_row = row "snapshot/re-warm-per-trial" !best_rewarm in
  Printf.printf "%-28s %10.2fx  (%d CoW pages per capture)\n%!"
    "snapshot/speedup" speedup pages;
  if speedup < 3.0 then
    Printf.printf "WARNING: warm-once/fork-many speedup %.2fx below 3x\n%!"
      speedup;
  let speedup_row =
    [ ("name", Json.Str "snapshot/speedup");
      ("speedup", Json.Num (Float.round (speedup *. 1e3) /. 1e3));
      ("snapshot_pages", int pages) ]
  in
  write_bench "BENCH_snapshot.json" [ fork_row; rewarm_row; speedup_row ];
  print_endline "wrote BENCH_snapshot.json\n"

(* --- Farm store microbenchmark (BENCH_farm.json) -----------------------

   The same small manifest run twice against one artifact store: the
   cold pass computes and commits every stage, the warm pass must be
   served entirely from cache — no program execution at all. Wall time
   plus the store hit/miss counters (and the loader-run counter, which
   must not move on the warm pass) are written to BENCH_farm.json. *)

let farm_manifest =
  "leela bench=541.leela_r max-k=4 warmup=1000 trials=1 regions=2\n\
   mcf bench=505.mcf_r max-k=4 warmup=1000 trials=1 regions=2\n"

let farm_bench () =
  print_endline "=== Farm store microbenchmark (cold vs warm cache) ===";
  let module Metrics = Elfie_obs.Metrics in
  let m_hits = Metrics.counter "elfie_store_hits_total" in
  let m_misses = Metrics.counter "elfie_store_misses_total" in
  let m_loader = Metrics.counter "elfie_loader_runs_total" in
  let root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "elfie_bench_farm.%d" (Unix.getpid ()))
  in
  let jobs =
    match Elfie_farm.Driver.manifest_of_string ~artifact:"bench" farm_manifest
    with
    | Ok jobs -> jobs
    | Error d -> Fmt.failwith "farm bench manifest: %a" Elfie_util.Diag.pp d
  in
  let store = Elfie_farm.Store.open_store root in
  let pass name =
    let h0 = Metrics.total m_hits
    and m0 = Metrics.total m_misses
    and r0 = Metrics.total m_loader in
    let t0 = Unix.gettimeofday () in
    let batch = Elfie_farm.Driver.run ~store jobs in
    let wall = Unix.gettimeofday () -. t0 in
    let hits = int_of_float (Metrics.total m_hits -. h0)
    and misses = int_of_float (Metrics.total m_misses -. m0)
    and runs = int_of_float (Metrics.total m_loader -. r0) in
    Printf.printf
      "%-26s %8.3f s  %4d hit(s) %4d miss(es) %4d program run(s)\n%!"
      name wall hits misses runs;
    if batch.Elfie_farm.Driver.b_quarantined > 0 then
      Printf.printf "WARNING: %d job(s) quarantined\n%!"
        batch.Elfie_farm.Driver.b_quarantined;
    [ ("name", Json.Str name);
      ("wall_s", secs wall);
      ("hits", int hits);
      ("misses", int misses);
      ("program_runs", int runs) ]
  in
  let cold = pass "farm/cold-cache" in
  let warm = pass "farm/warm-cache" in
  write_bench "BENCH_farm.json" [ cold; warm ];
  print_endline "wrote BENCH_farm.json\n"

let () =
  let jobs = ref 0 in
  let core_only = ref false in
  let simpoint_only = ref false in
  let farm_only = ref false in
  let snapshot_only = ref false in
  let rec parse = function
    | "--jobs" :: n :: rest ->
        jobs := (try int_of_string n with _ -> 0);
        parse rest
    | "--core-only" :: rest ->
        core_only := true;
        parse rest
    | "--simpoint" :: rest | "--simpoint-only" :: rest ->
        simpoint_only := true;
        parse rest
    | "--farm" :: rest | "--farm-only" :: rest ->
        farm_only := true;
        parse rest
    | "--snapshot" :: rest | "--snapshot-only" :: rest ->
        snapshot_only := true;
        parse rest
    | "--core-kernel" :: k :: rest ->
        (* Diagnostic: run the core microbenchmark on a single kernel
           (implies --core-only). *)
        (match
           List.find_opt
             (fun kn -> Elfie_workloads.Kernels.name kn = k)
             Elfie_workloads.Kernels.all
         with
        | Some kn ->
            core_kernels :=
              [ { Elfie_workloads.Programs.kernel = kn; reps = 8000 } ];
            core_only := true
        | None ->
            Printf.eprintf "unknown kernel %s (known kernels: %s)\n" k
              (String.concat ", "
                 (List.map Elfie_workloads.Kernels.name
                    Elfie_workloads.Kernels.all));
            exit 2);
        parse rest
    | _ :: rest -> parse rest
    | [] -> ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  Elfie_util.Pool.set_default_jobs
    (if !jobs <= 0 then Elfie_util.Pool.recommended () else !jobs);
  if !simpoint_only then begin
    simpoint_bench ();
    exit 0
  end;
  if !farm_only then begin
    farm_bench ();
    exit 0
  end;
  if !snapshot_only then begin
    snapshot_bench ();
    exit 0
  end;
  core_bench ();
  if !core_only then exit 0;
  simpoint_bench ();
  snapshot_bench ();
  farm_bench ();
  print_endline "=== Paper evaluation: every table and figure ===\n";
  (* Each phase runs as a supervised job: a crashing experiment is
     classified and quarantined instead of aborting the run, and the
     per-phase timing table below comes from the supervisor reports. *)
  let module Supervisor = Elfie_supervise.Supervisor in
  let module Trace = Elfie_obs.Trace in
  let module Metrics = Elfie_obs.Metrics in
  (* Observability snapshot per phase: how many trace events and native
     runner invocations each experiment generated, read back as deltas of
     the process-global tracer/metrics counters around its exec. *)
  let m_loader = Metrics.counter "elfie_loader_runs_total" in
  let obs_deltas : (string, int * int) Hashtbl.t = Hashtbl.create 16 in
  let reports =
    List.map
      (fun (e : Elfie_harness.Registry.experiment) ->
        fst
          (Supervisor.supervise ~job:e.id (fun ~seed:_ ~max_ins:_ ->
               Printf.printf "=== %s: %s ===\n%!" e.id e.title;
               let events0 = Trace.emitted () in
               let runs0 = Metrics.total m_loader in
               print_string (e.run ());
               print_newline ();
               Hashtbl.replace obs_deltas e.id
                 ( Trace.emitted () - events0,
                   int_of_float (Metrics.total m_loader -. runs0) );
               ((), Elfie_supervise.Classify.Graceful))))
      Elfie_harness.Registry.all
  in
  Printf.printf "=== Per-phase supervised timings ===\n";
  Printf.printf "%-10s %-14s %9s %10s %8s %8s\n" "phase" "classification"
    "attempts" "wall" "events" "runs";
  Printf.printf "%s\n" (String.make 65 '-');
  List.iter
    (fun (r : Supervisor.report) ->
      let events, runs =
        Option.value ~default:(0, 0) (Hashtbl.find_opt obs_deltas r.job)
      in
      Printf.printf "%-10s %-14s %9d %9.1fs %8d %8d\n" r.job
        (Elfie_supervise.Classify.to_string r.final)
        (List.length r.attempts) r.total_wall_s events runs)
    reports

(* Chain-tier smoke test, run from `dune runtest` via the @bench-smoke
   alias: a tiny deterministic loop kernel run chained (Machine.run),
   stepped one instruction at a time (Machine.step until [max_ins]), and
   twice more under a pintool counting every instruction, memory access
   and branch through call-outs (instrumented translations), chained
   and stepped. Guards
   against silent chain-tier regressions — the chained run must
   actually build superblocks, retire the stepped instruction stream in
   the same cycles, and not be slower than stepping — and against the
   hooked path drifting from the hook-free ones or falling off the
   chain tier: both hooked legs must retire the stepped stream in the
   same cycles with the same call-out counts, make one before-call per
   retired instruction and fire the memory call-outs, and the chained
   one must build superblocks. The workload is small enough for CI (a few
   hundred thousand instructions per leg) and the expected gap is
   large (stepping pays a dispatch round-trip per instruction), so
   best-of-N wall-clock comparison at margin 1.0 is robust against
   scheduler noise.

   Two more guards keep the simulators on the fast path: CoreSim on
   the same program must keep at least 0.45x of bare chained
   throughput, and a Sniper ELFie run must retire instructions in the
   chained tier (read from elfie_core_retired_total{tier}), not step
   them all. The CoreSim ratio times the simulated run alone, as the
   chained leg times [Machine.run] alone, in CPU time so that tests
   running beside it do not skew it; each trial's ratio sets CoreSim
   against the chained leg run just before it, and the best of 5
   counts. On a 2-vCPU host it read 0.54-0.92x (median 0.58x) in 15
   runs under a parallel `dune runtest`, and 0.35-0.42x when every
   instruction and memory access went through a per-execution hook. *)

module Machine = Elfie_machine.Machine
module Pintool = Elfie_pin.Pintool
module Metrics = Elfie_obs.Metrics

let max_ins = 400_000L
let trials = 5

let spec =
  Elfie_workloads.Programs.spec
    ~phases:
      [ { Elfie_workloads.Programs.kernel = Elfie_workloads.Kernels.Stream;
          reps = 4000 } ]
    ~outer_reps:50 ~threads:1 ~ws_bytes:65536 "bench-smoke"

(* [wall] is wall-clock time; [cpu] is this process's CPU time, which
   other processes sharing the host do not inflate. *)
type leg = { retired : int64; cycles : int64; built : int; wall : float; cpu : float }

let run ?(tools = []) ~stepped () =
  let rs = Elfie_workloads.Programs.run_spec ~seed:7L spec in
  let machine, _kernel = Elfie_pin.Run.instantiate rs in
  let detach = Pintool.attach machine tools in
  let th = Machine.thread machine 0 in
  let c0 = Sys.time () in
  let t0 = Unix.gettimeofday () in
  if stepped then
    while
      th.Machine.state = Machine.Runnable
      && Machine.total_retired machine < max_ins
    do
      Machine.step machine 0
    done
  else Machine.run ~max_ins machine;
  let wall = Unix.gettimeofday () -. t0 in
  let cpu = Sys.time () -. c0 in
  detach ();
  {
    retired = Machine.total_retired machine;
    cycles = Machine.elapsed_cycles machine;
    built = (Machine.chain_stats machine).Machine.superblocks_built;
    wall;
    cpu;
  }

(* CoreSim over the same program from its first instruction, to the
   same instruction count: (simulated instructions, CPU time, CPU time
   of the fixed part). The fixed part (boot, cache allocation,
   collecting the result) is timed in a run of no instructions, just
   before. *)
let coresim () =
  let image = Elfie_workloads.Programs.image spec in
  let simulate max_ins =
    let t0 = Sys.time () in
    let r =
      Elfie_coresim.Coresim.simulate ~from_marker:false ~max_ins
        Elfie_coresim.Coresim.skylake image
    in
    (r.Elfie_coresim.Coresim.user_instructions, Sys.time () -. t0)
  in
  let _, fixed = simulate 0L in
  let ins, total = simulate max_ins in
  (Int64.to_float ins, total, fixed)

(* The share of a Sniper ELFie run's instructions retired chained. *)
let sniper_chained_share () =
  let rs = Elfie_workloads.Programs.run_spec ~seed:7L spec in
  let cap =
    Elfie_pin.Logger.capture rs ~name:"smoke"
      { Elfie_pin.Logger.start = 20_000L; length = 100_000L }
  in
  let image =
    Elfie_core.Pinball2elf.convert
      ~options:
        { Elfie_core.Pinball2elf.default_options with
          marker = Some Elfie_core.Pinball2elf.Sniper }
      cap.Elfie_pin.Logger.pinball
  in
  let retired = Metrics.counter "elfie_core_retired_total" in
  let tier t = Metrics.value ~labels:[ ("tier", t) ] retired in
  let c0 = tier "chained" and s0 = tier "stepped" in
  ignore
    (Elfie_sniper.Sniper.simulate_elfie (Elfie_sniper.Sniper.gainestown ~cores:1) image);
  let c = tier "chained" -. c0 and s = tier "stepped" -. s0 in
  c /. Float.max 1.0 (c +. s)

let () =
  let best_chain = ref infinity and best_step = ref infinity in
  (* Per trial: (chained ins/s, CoreSim's instructions, its CPU time,
     its fixed part). *)
  let sims = ref [] in
  let chained = ref None and stepped = ref None in
  (* Interleaved trials, as in the full core bench, so neither leg
     systematically benefits from warm-up. *)
  for _ = 1 to trials do
    let s = run ~stepped:true () in
    stepped := Some s;
    if s.wall < !best_step then best_step := s.wall;
    let c = run ~stepped:false () in
    chained := Some c;
    if c.wall < !best_chain then best_chain := c.wall;
    let ins, total, fixed = coresim () in
    sims := (Int64.to_float c.retired /. c.cpu, ins, total, fixed) :: !sims
  done;
  let chained = Option.get !chained and stepped = Option.get !stepped in
  (* A hooked leg: one pintool counting every instruction, memory and
     branch hook; returns the leg and the (ins, reads, writes, branches)
     counts. *)
  let hooked ~stepped =
    let ins = ref 0 and reads = ref 0 and writes = ref 0 and branches = ref 0 in
    let every =
      {
        Machine.before = Some (fun _ -> incr ins);
        read = Some (fun _ _ _ -> incr reads);
        write = Some (fun _ _ _ -> incr writes);
        branch = Some (fun _ _ -> incr branches);
      }
    in
    let counter =
      { (Pintool.empty ~name:"smoke-counter") with instrument = Some (fun _ _ -> every) }
    in
    let leg = run ~tools:[ counter ] ~stepped () in
    (leg, (!ins, !reads, !writes, !branches))
  in
  let fail = ref false in
  let check name ok =
    Printf.printf "%-54s %s\n" name (if ok then "ok" else "FAIL");
    if not ok then fail := true
  in
  let same_stream leg =
    Int64.equal leg.retired stepped.retired
    && Int64.equal leg.cycles stepped.cycles
  in
  Printf.printf "bench-smoke: stepped %.1f ms, chained %.1f ms (best of %d)\n"
    (1000. *. !best_step) (1000. *. !best_chain) trials;
  check "chained retires the stepped stream in the same cycles"
    (same_stream chained && Int64.compare chained.retired 0L > 0);
  check "chained run built superblocks" (chained.built > 0);
  check "chained throughput >= stepped" (!best_chain <= !best_step);
  let counts =
    List.map
      (fun (name, stepped) ->
        let leg, ((ins, reads, writes, branches) as counts) = hooked ~stepped in
        Printf.printf
          "bench-smoke: %s %.1f ms; hooks fired: %d ins, %d reads, %d writes, \
           %d branches\n"
          name (1000. *. leg.wall) ins reads writes branches;
        check (name ^ " retires the stepped stream, same cycles")
          (same_stream leg);
        check (name ^ ": a before-call per retired instruction")
          (Int64.equal (Int64.of_int ins) leg.retired);
        check (name ^ ": memory call-outs fired") (reads > 0 && writes > 0);
        if not stepped then check (name ^ " run built superblocks") (leg.built > 0);
        counts)
      [ ("hooked", false); ("hooked stepped", true) ]
  in
  check "hooked legs fire the same hooks" (List.hd counts = List.nth counts 1);
  (* The least fixed part seen is taken off every trial's time, so no
     trial's run is timed shorter than it took. *)
  let fixed = List.fold_left (fun m (_, _, _, f) -> Float.min m f) infinity !sims in
  let ratio =
    List.fold_left
      (fun best (chain, ins, total, _) -> Float.max best (ins /. (total -. fixed) /. chain))
      0.0 !sims
  in
  Printf.printf
    "bench-smoke: CoreSim %.2fx of chained (CPU time of the runs alone, best of %d \
     paired trials; fixed part %.1f ms)\n"
    ratio trials (1000. *. fixed);
  check "CoreSim keeps >= 0.45x of chained throughput" (ratio >= 0.45);
  let share = sniper_chained_share () in
  Printf.printf "bench-smoke: Sniper ELFie retired %.0f%% chained\n" (100. *. share);
  check "Sniper ELFie retires in the chained tier" (share > 0.0);
  if !fail then exit 1

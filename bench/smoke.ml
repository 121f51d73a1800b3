(* Chain-tier smoke test, run from `dune runtest` via the @bench-smoke
   alias: a tiny deterministic loop kernel executed with the superblock
   chain tier, with plain block dispatch, and twice more under a pintool
   counting every instruction, memory and branch hook (instrumented
   translations), chained and with the chain tier disabled. Guards
   against silent chain-tier regressions — the chained run must
   actually build superblocks, retire the identical instruction stream,
   and not be slower than block-only dispatch — and against the hooked
   path drifting from the hook-free ones or falling off the chain tier:
   both hooked legs must retire the same stream in the same cycles, fire
   [on_ins] once per retired instruction and fire the memory hooks, and
   the chained one must build superblocks. The workload is small enough
   for CI (a few hundred thousand instructions per leg) and the expected
   chain gap is large (≥1.3x in BENCH_core.json), so best-of-N
   wall-clock comparison at margin 1.0 is robust against scheduler
   noise. *)

module Machine = Elfie_machine.Machine
module Pintool = Elfie_pin.Pintool

let max_ins = 400_000L
let trials = 5

let spec =
  Elfie_workloads.Programs.spec
    ~phases:
      [ { Elfie_workloads.Programs.kernel = Elfie_workloads.Kernels.Stream;
          reps = 4000 } ]
    ~outer_reps:50 ~threads:1 ~ws_bytes:65536 "bench-smoke"

type leg = { retired : int64; cycles : int64; built : int; wall : float }

let run ?(tools = []) ~chain () =
  let rs = Elfie_workloads.Programs.run_spec ~seed:7L spec in
  let machine, _kernel = Elfie_pin.Run.instantiate rs in
  Machine.set_chain_enabled machine chain;
  let detach = Pintool.attach machine tools in
  let t0 = Unix.gettimeofday () in
  Machine.run ~max_ins machine;
  let wall = Unix.gettimeofday () -. t0 in
  detach ();
  {
    retired = Machine.total_retired machine;
    cycles = Machine.elapsed_cycles machine;
    built = (Machine.chain_stats machine).Machine.superblocks_built;
    wall;
  }

let () =
  let best_chain = ref infinity and best_block = ref infinity in
  let chained = ref None and block = ref None in
  (* Interleaved trials, as in the full core bench, so neither leg
     systematically benefits from warm-up. *)
  for _ = 1 to trials do
    let b = run ~chain:false () in
    block := Some b;
    if b.wall < !best_block then best_block := b.wall;
    let c = run ~chain:true () in
    chained := Some c;
    if c.wall < !best_chain then best_chain := c.wall
  done;
  let chained = Option.get !chained and block = Option.get !block in
  (* A hooked leg: one pintool counting every instruction, memory and
     branch hook; returns the leg and the (ins, reads, writes, branches)
     counts. *)
  let hooked ~chain =
    let ins = ref 0 and reads = ref 0 and writes = ref 0 and branches = ref 0 in
    let counter =
      {
        (Pintool.empty ~name:"smoke-counter") with
        on_ins = Some (fun _ _ _ -> incr ins);
        on_mem_read = Some (fun _ _ _ -> incr reads);
        on_mem_write = Some (fun _ _ _ -> incr writes);
        on_branch = Some (fun _ _ _ _ -> incr branches);
      }
    in
    let leg = run ~tools:[ counter ] ~chain () in
    (leg, (!ins, !reads, !writes, !branches))
  in
  let fail = ref false in
  let check name ok =
    Printf.printf "%-50s %s\n" name (if ok then "ok" else "FAIL");
    if not ok then fail := true
  in
  Printf.printf "bench-smoke: block-only %.1f ms, chained %.1f ms (best of %d)\n"
    (1000. *. !best_block) (1000. *. !best_chain) trials;
  check "chained and block-only retire the same stream"
    (Int64.equal chained.retired block.retired
    && Int64.compare chained.retired 0L > 0);
  check "chained run built superblocks" (chained.built > 0);
  check "chained throughput >= block-only" (!best_chain <= !best_block);
  List.iter
    (fun (name, chain) ->
      let leg, (ins, reads, writes, branches) = hooked ~chain in
      Printf.printf
        "bench-smoke: %s %.1f ms; hooks fired: %d ins, %d reads, %d writes, \
         %d branches\n"
        name (1000. *. leg.wall) ins reads writes branches;
      check (name ^ " leg retires the chained stream")
        (Int64.equal leg.retired chained.retired
        && Int64.equal leg.cycles chained.cycles);
      check (name ^ ": on_ins once per retired instruction")
        (Int64.equal (Int64.of_int ins) leg.retired);
      check (name ^ ": memory hooks fired") (reads > 0 && writes > 0);
      if chain then check (name ^ " run built superblocks") (leg.built > 0))
    [ ("hooked", true); ("hooked chain-off", false) ];
  if !fail then exit 1

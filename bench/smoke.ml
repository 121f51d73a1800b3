(* Chain-tier smoke test, run from `dune runtest` via the @bench-smoke
   alias: a tiny deterministic loop kernel run chained (Machine.run),
   stepped one instruction at a time (Machine.step until [max_ins]), and
   twice more under a pintool counting every instruction, memory and
   branch hook (instrumented translations), chained and stepped. Guards
   against silent chain-tier regressions — the chained run must
   actually build superblocks, retire the stepped instruction stream in
   the same cycles, and not be slower than stepping — and against the
   hooked path drifting from the hook-free ones or falling off the
   chain tier: both hooked legs must retire the stepped stream in the
   same cycles with the same hook counts, fire [on_ins] once per
   retired instruction and fire the memory hooks, and the chained one
   must build superblocks. The workload is small enough for CI (a few
   hundred thousand instructions per leg) and the expected gap is
   large (stepping pays a dispatch round-trip per instruction), so
   best-of-N wall-clock comparison at margin 1.0 is robust against
   scheduler noise. *)

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

let run ?(tools = []) ~stepped () =
  let rs = Elfie_workloads.Programs.run_spec ~seed:7L spec in
  let machine, _kernel = Elfie_pin.Run.instantiate rs in
  let detach = Pintool.attach machine tools in
  let th = Machine.thread machine 0 in
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
  detach ();
  {
    retired = Machine.total_retired machine;
    cycles = Machine.elapsed_cycles machine;
    built = (Machine.chain_stats machine).Machine.superblocks_built;
    wall;
  }

let () =
  let best_chain = ref infinity and best_step = ref infinity in
  let chained = ref None and stepped = ref None in
  (* Interleaved trials, as in the full core bench, so neither leg
     systematically benefits from warm-up. *)
  for _ = 1 to trials do
    let s = run ~stepped:true () in
    stepped := Some s;
    if s.wall < !best_step then best_step := s.wall;
    let c = run ~stepped:false () in
    chained := Some c;
    if c.wall < !best_chain then best_chain := c.wall
  done;
  let chained = Option.get !chained and stepped = Option.get !stepped in
  (* A hooked leg: one pintool counting every instruction, memory and
     branch hook; returns the leg and the (ins, reads, writes, branches)
     counts. *)
  let hooked ~stepped =
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
        check (name ^ ": on_ins once per retired instruction")
          (Int64.equal (Int64.of_int ins) leg.retired);
        check (name ^ ": memory hooks fired") (reads > 0 && writes > 0);
        if not stepped then check (name ^ " run built superblocks") (leg.built > 0);
        counts)
      [ ("hooked", false); ("hooked stepped", true) ]
  in
  check "hooked legs fire the same hooks" (List.hd counts = List.nth counts 1);
  if !fail then exit 1

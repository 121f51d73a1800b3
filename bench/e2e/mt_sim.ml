(* The mt-sim workload: the Fig. 11 / Table IV / Table V path. Each
   four-thread spin-barrier program is captured under the free
   scheduler with fine time slices (Pin-style logging), then simulated
   by Sniper as a pinball (constrained replay) and as an ELFie ending at
   the (PC, count) condition a profiling replay picks, by gem5 in SE mode
   under the Nehalem-like and Haswell-like configurations, and by
   full-system CoreSim. It stresses the three timing models and
   multithreaded scheduling while the chained execution tier sits idle.

   An operation is one simulation; it fails when the simulation did not
   complete (the instruction cap stopped it). *)

module Programs = Elfie_workloads.Programs
module Sniper = Elfie_sniper.Sniper
module Gem5 = Elfie_gem5.Gem5
module Coresim = Elfie_coresim.Coresim
module P2e = Elfie_core.Pinball2elf

let threads = 4

let shape = function
  | Work.Full ->
      { Gen.prefix = "mt"; working_sets = Gen.all_working_sets;
        threads = (fun _ -> threads); ins_per_phase = 30_000; outer_reps = 5 }
  | Work.Smoke ->
      { Gen.prefix = "mt"; working_sets = Gen.smoke_working_sets;
        threads = (fun _ -> threads); ins_per_phase = 5_000; outer_reps = 3 }

let region_length = function Work.Full -> 160_000L | Work.Smoke -> 20_000L
let sniper = Sniper.gainestown ~cores:threads
let workdir = "/work"

type sim = { completed : bool; canon : string }

let sniper_sim (r : Sniper.result) =
  let b = Buffer.create 128 in
  Work.add_i64 b r.instructions;
  Array.iter (Work.add_i64 b) r.per_thread_instructions;
  Work.add_i64 b r.runtime_cycles;
  Work.add_f b r.ipc;
  Array.iter (Work.add_i64 b) r.per_core_cycles;
  Printf.bprintf b "%b;%b;" r.end_condition_met r.completed;
  { completed = r.completed; canon = Buffer.contents b }

let gem5_sim (r : Gem5.result) =
  let b = Buffer.create 64 in
  Work.add_i64 b r.instructions;
  Work.add_i64 b r.cycles;
  Work.add_f b r.ipc;
  Work.add_i64 b r.l2_misses;
  Printf.bprintf b "%b;" r.completed;
  { completed = r.completed; canon = Buffer.contents b }

let coresim_sim (r : Coresim.result) =
  let b = Buffer.create 64 in
  List.iter (Work.add_i64 b)
    [ r.user_instructions; r.kernel_instructions; r.runtime_cycles;
      r.data_footprint_bytes; r.dtlb_misses; r.llc_misses; r.syscalls ];
  Work.add_f b r.cpi;
  Printf.bprintf b "%b;" r.completed;
  { completed = r.completed; canon = Buffer.contents b }

let process size (rs : Elfie_pin.Run.spec) (s : Programs.spec) =
  let length = region_length size in
  let start = Int64.div (Programs.approx_instructions s) 3L in
  let { Elfie_pin.Logger.pinball; _ } =
    Work.span "bench.logger" (fun () ->
        Elfie_pin.Logger.capture
          ~scheduler:
            (Elfie_machine.Machine.Free
               { seed = rs.seed; quantum_min = 10; quantum_max = 30 })
          rs ~name:s.name { start; length })
  in
  let pb = Sniper.simulate_pinball sniper pinball in
  let exclude =
    match
      ( Elfie_elf.Image.find_symbol rs.image "barrier_begin",
        Elfie_elf.Image.find_symbol rs.image "barrier_end" )
    with
    | Some lo, Some hi -> Some (lo, hi)
    | _ -> None
  in
  let ec =
    Work.span "bench.sniper.end_condition" (fun () ->
        Sniper.profile_end_condition ?exclude pinball)
  in
  let sysstate =
    Work.span "bench.sysstate" (fun () -> Elfie_pin.Sysstate.analyze pinball)
  in
  let convert options =
    Work.span "bench.pinball2elf" (fun () ->
        P2e.convert ~options:{ options with P2e.sysstate = Some sysstate } pinball)
  in
  (* Sniper ends the ELFie at the (PC, count) condition, as in the
     paper's Sniper study; gem5 and CoreSim run a counter-armed ELFie to
     its graceful exit. *)
  let sniper_elfie =
    convert { P2e.default_options with marker = Some P2e.Sniper; arm_counters = false }
  in
  let elfie = convert { P2e.default_options with marker = Some (P2e.Ssc 0x4649L) } in
  let fs_init fs = Elfie_pin.Sysstate.install sysstate fs ~workdir in
  let max_ins = Int64.mul 20L length in
  let el =
    Sniper.simulate_elfie ~end_condition:ec ~fs_init ~cwd:workdir ~max_ins sniper
      sniper_elfie
  in
  let gem5 cfg = Gem5.simulate_se ~fs_init ~cwd:workdir ~max_ins cfg elfie in
  let fs =
    Coresim.simulate ~mode:Coresim.Full_system ~fs_init ~cwd:workdir ~max_ins
      Coresim.skylake elfie
  in
  let gap =
    Float.abs (Int64.to_float el.runtime_cycles -. Int64.to_float pb.runtime_cycles)
    /. Float.max 1.0 (Int64.to_float pb.runtime_cycles)
  in
  ( [ sniper_sim pb; sniper_sim el; gem5_sim (gem5 Gem5.nehalem);
      gem5_sim (gem5 Gem5.haswell); coresim_sim fs ],
    Elfie_pinball.Pinball.total_icount pinball,
    Int64.add start length,
    gap )

let setup size ~seed =
  let specs, run_specs, inputs_digest = Work.generate (shape size) ~seed in
  let programs = List.combine run_specs specs in
  let run_pass ~jobs =
    let results, latencies =
      Work.per_program ~jobs (fun (rs, s) -> process size rs s) programs
    in
    let sims = List.concat_map (fun (sims, _, _, _) -> sims) results in
    let b = Buffer.create 4096 in
    List.iter
      (fun (sims, recorded, _, gap) ->
        Work.add_i64 b recorded;
        Work.add_f b gap;
        List.iter (fun s -> Buffer.add_string b s.canon) sims)
      results;
    let n = List.length sims in
    let completed = Work.sum_i (fun s -> if s.completed then 1 else 0) sims in
    {
      Work.latencies;
      digest = Work.hex_md5 (Buffer.contents b);
      attempted = n;
      failed = n - completed;
      coverage = float_of_int completed /. float_of_int n;
      work =
        [ ("regions", float_of_int (List.length results));
          ("logger_ins", Work.sum (fun (_, _, l, _) -> Int64.to_float l) results) ];
      info =
        [ ( "sniper_runtime_gap_pct",
            100.0 *. Work.mean (fun (_, _, _, g) -> g) results ) ];
    }
  in
  { Work.inputs_digest; run_pass; probe = (fun () -> []) }

let workload = { Work.name = "mt-sim"; setup }

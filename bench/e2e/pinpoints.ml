(* The PinPoints workloads: profile -> SimPoint -> fat-pinball capture ->
   pinball2elf -> native (and optionally simulated) validation, through
   [Pipeline.validate], one program per pool task.

   pinpoints-sim is the Fig. 9 path (two ELFie instances plus CoreSim):
   it stresses CoreSim and the hooked per-instruction interpreter.
   pinpoints-native is the Fig. 10 / Table III path (no simulation): it
   stresses hook-free chained execution, block-driven BBV, k-means and
   warm/fork, while CoreSim does no work at all, so it is the bypass
   workload for any simulator or hook optimisation.

   An operation is a SimPoint cluster. It fails when it ends without a
   result: every alternate abandoned, or (with simulation) no simulated
   CPI. A quarantined alternate that a lower-ranked one replaced is
   recovery, recorded in the digest, not a failure. *)

module Pipeline = Elfie_harness.Pipeline
module Simpoint = Elfie_simpoint.Simpoint
module Perf = Elfie_perf.Perf
module Programs = Elfie_workloads.Programs
module Suite = Elfie_workloads.Suite

(* Phases of 200k instructions span four SimPoint slices, as the Suite's
   phases span several. A simulated region costs far more than a native
   one, so pinpoints-sim runs the two extreme working sets only (L2
   spilled, L1 resident): half the programs of pinpoints-native. *)
let shape ~sim size =
  let prefix = if sim then "pps" else "ppn" in
  match size with
  | Work.Full ->
      { Gen.prefix;
        working_sets = (if sim then [ 2_097_152; 16_384 ] else Gen.all_working_sets);
        threads = (fun _ -> 1); ins_per_phase = 200_000; outer_reps = 2 }
  | Work.Smoke ->
      { Gen.prefix; working_sets = Gen.smoke_working_sets; threads = (fun _ -> 1);
        ins_per_phase = 20_000; outer_reps = 3 }

(* At full size, the SimPoint parameters of Fig. 9 and Fig. 10
   (exp_fig9.ml, exp_ref.ml): 50k-instruction slices, 200k warmup,
   max_k 50. Smoke programs are too short for them. *)
let params ~sim = function
  | Work.Full when sim -> Elfie_harness.Exp_fig9.params
  | Work.Full -> Elfie_harness.Exp_ref.params
  | Work.Smoke ->
      { Simpoint.default_params with slice_size = 10_000L; warmup = 20_000L;
        max_k = 10 }

let add_sample b (s : Perf.sample) =
  Work.add_f b s.mean_cpi;
  Work.add_f b s.stddev_cpi;
  Work.add_i64 b s.instructions;
  Printf.bprintf b "%d/%d;" s.failures s.trials

let add_opt f b = function
  | None -> Buffer.add_string b "-;"
  | Some x -> f b x

let add_validation b (v : Pipeline.validation) =
  Work.add_s b v.bench;
  Work.add_i64 b v.total_ins;
  Printf.bprintf b "%d;%d;" v.num_slices v.k;
  Work.add_f b v.coverage;
  add_sample b v.native_whole;
  Work.add_f b v.elfie_pred_cpi;
  Work.add_f b v.elfie_error;
  List.iter (add_opt Work.add_f b)
    [ v.elfie_error2; v.sim_whole_cpi; v.sim_pred_cpi; v.sim_error ];
  List.iter
    (fun (ro : Pipeline.region_outcome) ->
      let r = ro.region in
      Printf.bprintf b "r%d,%d,%d;" r.cluster r.slice_index r.rank;
      Work.add_f b r.weight;
      Work.add_i64 b r.start;
      Work.add_i64 b r.length;
      Work.add_i64 b r.warmup_actual;
      add_opt (fun b -> Printf.bprintf b "%d;") b ro.rank_used;
      add_opt add_sample b ro.elfie_sample;
      add_opt add_sample b ro.elfie_sample2;
      add_opt Work.add_f b ro.sim_cpi)
    v.regions;
  List.iter
    (fun d -> Work.add_s b (Format.asprintf "%a" Pipeline.pp_degradation d))
    v.degradations

let failed_clusters ~sim (v : Pipeline.validation) =
  Work.sum_i
    (fun (ro : Pipeline.region_outcome) ->
      if ro.rank_used = None || (sim && ro.sim_cpi = None) then 1 else 0)
    v.regions

(* The capture -> sysstate -> convert -> ELF write/read chain the
   pipeline runs inside [pipeline.regions] without spans of its own,
   re-run on each program's resolved regions. *)
let probe_program (b : Suite.benchmark) (v : Pipeline.validation) =
  let resolved =
    List.filter_map
      (fun (ro : Pipeline.region_outcome) ->
        Option.map (fun _ -> ro.region) ro.rank_used)
      v.regions
  in
  let requests =
    List.map
      (fun (r : Simpoint.region) ->
        ( Printf.sprintf "%s_c%d" b.bname r.cluster,
          { Elfie_pin.Logger.start = r.start; length = r.length } ))
      resolved
  in
  let run_spec = Programs.run_spec b.spec in
  let captured =
    Work.span "bench.logger" (fun () ->
        Elfie_pin.Logger.capture_many run_spec requests)
  in
  List.iter2
    (fun (r : Simpoint.region) (name, _) ->
      let res = List.assoc name captured in
      let sysstate =
        Work.span "bench.sysstate" (fun () ->
            Elfie_pin.Sysstate.analyze res.pinball)
      in
      let options =
        { Elfie_core.Pinball2elf.default_options with
          sysstate = Some sysstate;
          marker = Some (Elfie_core.Pinball2elf.Ssc 0x4649L);
          warmup_mark =
            (if r.warmup_actual > 0L then Some r.warmup_actual else None) }
      in
      let elfie =
        Work.span "bench.pinball2elf" (fun () ->
            Elfie_core.Pinball2elf.convert ~options res.pinball)
      in
      Work.span "bench.elf_roundtrip" (fun () ->
          ignore (Elfie_elf.Image.read (Elfie_elf.Image.write elfie))))
    resolved requests;
  let logged =
    List.fold_left
      (fun acc (_, (rq : Elfie_pin.Logger.region)) ->
        max acc (Int64.add rq.start rq.length))
      0L requests
  in
  (List.length resolved, Int64.to_float logged)

let setup ~sim size ~seed =
  let specs, _, inputs_digest = Work.generate (shape ~sim size) ~seed in
  let benches = List.map (fun s -> { Suite.bname = s.Programs.name; spec = s }) specs in
  let params = params ~sim size in
  let last = ref [] in
  let validate b =
    if sim then
      Pipeline.validate ~jobs:1 ~params ~trials:3 ~base_seed:2000L
        ~second_base_seed:7000L ~with_simulation:true b
    else Pipeline.validate ~jobs:1 ~params ~trials:2 ~base_seed:4000L b
  in
  let run_pass ~jobs =
    let vs, latencies = Work.per_program ~jobs validate benches in
    last := vs;
    let b = Buffer.create 65536 in
    List.iter (add_validation b) vs;
    let pct f = 100.0 *. Work.mean f vs in
    {
      Work.latencies;
      digest = Work.hex_md5 (Buffer.contents b);
      attempted = Work.sum_i (fun v -> List.length v.Pipeline.regions) vs;
      failed = Work.sum_i (failed_clusters ~sim) vs;
      coverage = Work.mean (fun v -> v.Pipeline.coverage) vs;
      work =
        [ ( "native_ins",
            Work.sum
              (fun v ->
                let s = v.Pipeline.native_whole in
                Int64.to_float s.Perf.instructions *. float_of_int s.Perf.trials)
              vs ) ];
      info =
        ("elfie_err_pct", pct (fun v -> v.Pipeline.elfie_error))
        ::
        (if sim then
           [ ( "sim_err_pct",
               pct (fun v -> Option.value ~default:0.0 v.Pipeline.sim_error) ) ]
         else []);
    }
  in
  let probe () =
    let counts = List.map2 probe_program benches !last in
    [ ("regions", float_of_int (Work.sum_i fst counts));
      ("logger_ins", Work.sum snd counts) ]
  in
  { Work.inputs_digest; run_pass; probe }

let sim = { Work.name = "pinpoints-sim"; setup = setup ~sim:true }
let native = { Work.name = "pinpoints-native"; setup = setup ~sim:false }

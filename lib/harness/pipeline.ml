module Simpoint = Elfie_simpoint.Simpoint
module Perf = Elfie_perf.Perf
module Supervisor = Elfie_supervise.Supervisor
module Classify = Elfie_supervise.Classify
module Trace = Elfie_obs.Trace
module Metrics = Elfie_obs.Metrics

let m_coverage =
  Metrics.gauge "elfie_pipeline_coverage"
    ~help:"Execution weight covered by gracefully re-executed regions \
           in the most recent validation"

let m_degradations =
  Metrics.counter "elfie_pipeline_degradations_total"
    ~help:"Graceful-degradation events during validation, by action"

type region_outcome = {
  region : Simpoint.region;
  rank_used : int option;
  elfie_sample : Perf.sample option;
  elfie_sample2 : Perf.sample option;
  sim_cpi : float option;
}

type deg_action =
  | Seed_retried of { retries : int; seed : int64 }
  | Alternate_used of { rank : int }
  | Quarantined of { classification : Classify.t; attempts : int }
  | Abandoned

type degradation = {
  deg_cluster : int;
  deg_action : deg_action;
  deg_detail : string;
}

let pp_degradation fmt d =
  let action =
    match d.deg_action with
    | Seed_retried { retries; seed } ->
        Printf.sprintf "recovered after %d seed retry(ies) (seed %Ld)" retries
          seed
    | Alternate_used { rank } ->
        Printf.sprintf "fell back to alternate region rank %d" rank
    | Quarantined { classification; attempts } ->
        Printf.sprintf "quarantined after %d attempt(s): %s" attempts
          (Classify.to_string classification)
    | Abandoned -> "abandoned: every alternate failed"
  in
  Format.fprintf fmt "cluster %d: %s — %s" d.deg_cluster action d.deg_detail

type validation = {
  bench : string;
  total_ins : int64;
  num_slices : int;
  k : int;
  coverage : float;
  native_whole : Perf.sample;
  elfie_pred_cpi : float;
  elfie_error : float;
  elfie_error2 : float option;
  sim_whole_cpi : float option;
  sim_pred_cpi : float option;
  sim_error : float option;
  regions : region_outcome list;
  degradations : degradation list;
}

let workdir = "/work"

let make_region_elfie run_spec ~name ~warmup ~start ~length =
  match
    Elfie_pin.Logger.capture run_spec ~name
      { Elfie_pin.Logger.start; length }
  with
  | exception Elfie_pin.Logger.Unsupported _ -> None
  | { pinball; reached_end } ->
      if reached_end then Some (Elfie_core.Pinball2elf.region ~warmup pinball)
      else None

(* Region measurement (both entry points below) warms each ELFie once
   per attempt and forks the copy-on-write capture per trial — see
   Perf.elfie_region — so adding trials costs slice execution only, not
   repeated warmups, and results stay identical at any [--jobs]. *)
let measure_elfie ~trials ~base_seed (image, sysstate) =
  Perf.elfie_region ~trials ~base_seed
    ~fs_init:(fun fs -> Elfie_pin.Sysstate.install sysstate fs ~workdir)
    ~cwd:workdir image

(* Graceful recovery, layer 1 — driven by the supervisor: an ELFie whose
   trials all fail (the classic cause is a stack collision with the
   randomized native stack) is retried under fresh stack-randomization
   seeds according to its crash classification: collisions and syscall
   failures reseed up to [max_seed_retries] times, runaways get one
   raised instruction budget, anything else quarantines immediately.
   Returns the supervisor's report plus the accepted sample. *)
let measure_supervised ~trials ~base_seed ~max_seed_retries ~job
    (image, sysstate) =
  let policy = { Supervisor.retries = max_seed_retries; base_seed } in
  Supervisor.supervise ~job ~policy (fun ~seed ~max_ins ->
      let sample, outcomes =
        Perf.elfie_region_detailed ~trials ~base_seed:seed ?max_ins
          ~fs_init:(fun fs -> Elfie_pin.Sysstate.install sysstate fs ~workdir)
          ~cwd:workdir image
      in
      let cls =
        if sample.Perf.failures < trials then Classify.Graceful
        else
          match
            List.find_opt
              (fun (o : Elfie_core.Elfie_runner.outcome) -> not o.graceful)
              outcomes
          with
          | Some o -> Classify.of_outcome o
          | None -> Classify.Backend_error "no trials ran"
      in
      (sample, cls))

(* Simulate one region ELFie on the user-level CoreSim model, measuring
   past the warmup prefix only (the traditional validation path). A
   simulation that the instruction cap had to stop classifies as a
   runaway and is quarantined after one raised-budget retry. *)
let simulate_region ~job (image, sysstate) ~warmup =
  Supervisor.supervise ~job ~max_ins:100_000_000L (fun ~seed:_ ~max_ins ->
      let r =
        Elfie_coresim.Coresim.simulate ~mode:Elfie_coresim.Coresim.User_level
          ?measure_after:(if warmup > 0L then Some warmup else None)
          ~fs_init:(fun fs -> Elfie_pin.Sysstate.install sysstate fs ~workdir)
          ~cwd:workdir
          ?max_ins Elfie_coresim.Coresim.skylake image
      in
      ( r.Elfie_coresim.Coresim.cpi,
        if r.Elfie_coresim.Coresim.completed then Classify.Graceful
        else Classify.Runaway ))

(* Pure per-request outcome of one region measurement, produced on a
   pool worker and merged into the shared tables afterwards (in request
   order) so parallel validation reports the same degradation sequence
   as sequential. *)
type req_result =
  | Req_skipped
  | Req_ok of {
      sample : Perf.sample;
      seed_retry : (int * int64) option;  (* retries, last seed *)
      sample2 : Perf.sample option;
      sim_cpi : float option;
      sim_quarantine : (Classify.t * int) option;
    }
  | Req_quarantined of { classification : Classify.t; attempts : int }

let validate ?jobs ?(params = Simpoint.default_params) ?(trials = 3)
    ?(base_seed = 2000L) ?second_base_seed ?(with_simulation = false)
    ?(max_alternates = 3) ?(max_seed_retries = 2)
    ?(elfie_options = fun (_ : Simpoint.region) o -> o)
    (b : Elfie_workloads.Suite.benchmark) =
  let run_spec = Elfie_workloads.Programs.run_spec b.spec in
  let profile =
    Trace.with_span "pipeline.profile"
      ~attrs:[ ("bench", Trace.S b.bname) ]
      (fun _ ->
        Elfie_pin.Bbv.profile run_spec ~slice_size:params.Simpoint.slice_size)
  in
  let sel =
    Trace.with_span "pipeline.select" (fun sp ->
        let sel = Simpoint.select ?jobs ~params profile in
        Trace.add_attr sp "k" (Trace.I (Int64.of_int sel.Simpoint.k));
        sel)
  in
  let native_whole =
    Trace.with_span "pipeline.native_whole" (fun _ ->
        Perf.whole_program ~trials ~base_seed run_spec)
  in
  (* Rank by rank: batch-capture all still-unresolved clusters' regions
     in a single program execution, convert and measure each, and fall
     back to the next alternate for clusters whose ELFie fails — the
     paper's alternate-region-selection loop. *)
  let clusters =
    Array.to_list sel.Simpoint.alternates |> List.filter (fun l -> l <> [])
  in
  let resolved : (int, region_outcome) Hashtbl.t = Hashtbl.create 16 in
  let degradations = ref [] in
  let degrade d =
    let action =
      match d.deg_action with
      | Seed_retried _ -> "seed_retried"
      | Alternate_used _ -> "alternate_used"
      | Quarantined _ -> "quarantined"
      | Abandoned -> "abandoned"
    in
    Metrics.inc m_degradations ~labels:[ ("action", action) ];
    degradations := d :: !degradations
  in
  let rank = ref 0 in
  let pending = ref clusters in
  let regions_sp = Trace.begin_span "pipeline.regions" in
  while !pending <> [] && !rank < max_alternates do
    let wanted =
      List.filter_map
        (fun alts -> List.nth_opt alts !rank |> Option.map (fun r -> r))
        !pending
    in
    let requests =
      List.map
        (fun (r : Simpoint.region) ->
          ( Printf.sprintf "%s_c%d_r%d" b.bname r.cluster r.rank,
            (r, { Elfie_pin.Logger.start = r.start; length = r.length }) ))
        wanted
    in
    let captured =
      Elfie_pin.Logger.capture_many run_spec
        (List.map (fun (n, (_, req)) -> (n, req)) requests)
    in
    (* Each request is an independent job (its seeds derive from the job
       name and [base_seed], not from execution order), so one rank's
       regions measure in parallel on the pool; results merge below in
       request order, keeping [degradations] and [resolved]
       deterministic. *)
    let process (name, (r, _)) =
      match List.assoc_opt name captured with
      | Some { Elfie_pin.Logger.pinball; reached_end = true } -> (
          let elfie =
            Elfie_core.Pinball2elf.region
              ~options:(elfie_options r Elfie_core.Pinball2elf.default_options)
              ~warmup:r.Simpoint.warmup_actual pinball
          in
          let report, sample =
            measure_supervised ~trials ~base_seed ~max_seed_retries ~job:name
              elfie
          in
          match sample with
          | Some sample when not report.Supervisor.quarantined ->
              let attempts = report.Supervisor.attempts in
              let retries = List.length attempts - 1 in
              let seed_retry =
                if retries > 0 then
                  let last = List.nth attempts retries in
                  Some (retries, last.Supervisor.attempt_seed)
                else None
              in
              let sample2 =
                Option.map
                  (fun seed -> measure_elfie ~trials ~base_seed:seed elfie)
                  second_base_seed
              in
              let sim_cpi, sim_quarantine =
                if with_simulation then begin
                  let sim_job = name ^ "_sim" in
                  let sim_report, cpi =
                    simulate_region ~job:sim_job elfie
                      ~warmup:r.Simpoint.warmup_actual
                  in
                  ( cpi,
                    if sim_report.Supervisor.quarantined then
                      Some
                        ( sim_report.Supervisor.final,
                          List.length sim_report.Supervisor.attempts )
                    else None )
                end
                else (None, None)
              in
              Req_ok { sample; seed_retry; sample2; sim_cpi; sim_quarantine }
          | Some _ | None ->
              (* The supervisor exhausted its retry budget (or hit an
                 unretryable class): quarantine this alternate and let
                 the loop fall back to the cluster's next rank. *)
              Req_quarantined
                {
                  classification = report.Supervisor.final;
                  attempts = List.length report.Supervisor.attempts;
                })
      | Some _ | None -> Req_skipped
    in
    let results = Elfie_util.Pool.map ?jobs process requests in
    List.iter2
      (fun (name, (r, _)) result ->
        match result with
        | Req_skipped -> ()
        | Req_ok { sample; seed_retry; sample2; sim_cpi; sim_quarantine } ->
            (match seed_retry with
            | Some (retries, seed) ->
                degrade
                  {
                    deg_cluster = r.Simpoint.cluster;
                    deg_action = Seed_retried { retries; seed };
                    deg_detail =
                      Printf.sprintf
                        "region rank %d failed all %d trial(s) at base seed \
                         %Ld"
                        r.Simpoint.rank trials base_seed;
                  }
            | None -> ());
            if r.Simpoint.rank > 0 then
              degrade
                {
                  deg_cluster = r.Simpoint.cluster;
                  deg_action = Alternate_used { rank = r.Simpoint.rank };
                  deg_detail =
                    Printf.sprintf
                      "higher-ranked representative(s) did not re-execute \
                       gracefully";
                };
            (match sim_quarantine with
            | Some (classification, attempts) ->
                degrade
                  {
                    deg_cluster = r.Simpoint.cluster;
                    deg_action = Quarantined { classification; attempts };
                    deg_detail = Printf.sprintf "simulation job %s_sim" name;
                  }
            | None -> ());
            Hashtbl.replace resolved r.Simpoint.cluster
              {
                region = r;
                rank_used = Some r.Simpoint.rank;
                elfie_sample = Some sample;
                elfie_sample2 = sample2;
                sim_cpi;
              }
        | Req_quarantined { classification; attempts } ->
            degrade
              {
                deg_cluster = r.Simpoint.cluster;
                deg_action = Quarantined { classification; attempts };
                deg_detail = Printf.sprintf "region job %s" name;
              })
      requests results;
    pending :=
      List.filter
        (fun alts ->
          match alts with
          | (r : Simpoint.region) :: _ -> not (Hashtbl.mem resolved r.cluster)
          | [] -> false)
        !pending;
    incr rank
  done;
  Trace.end_span regions_sp
    ~attrs:[ ("resolved", Trace.I (Int64.of_int (Hashtbl.length resolved))) ];
  let summarize_sp = Trace.begin_span "pipeline.summarize" in
  let regions =
    List.map
      (fun alts ->
        let rep = List.hd alts in
        match Hashtbl.find_opt resolved rep.Simpoint.cluster with
        | Some outcome -> outcome
        | None ->
            degrade
              {
                deg_cluster = rep.Simpoint.cluster;
                deg_action = Abandoned;
                deg_detail =
                  Printf.sprintf
                    "no alternate among the first %d re-executed gracefully \
                     (weight %.3f lost)"
                    (min max_alternates (List.length alts))
                    rep.Simpoint.weight;
              };
            { region = rep; rank_used = None; elfie_sample = None;
              elfie_sample2 = None; sim_cpi = None })
      clusters
  in
  let covered =
    List.filter (fun ro -> ro.rank_used <> None) regions
  in
  let coverage =
    List.fold_left (fun acc ro -> acc +. ro.region.Simpoint.weight) 0.0 covered
  in
  let weighted f =
    Simpoint.predict
      (List.filter_map
         (fun ro -> Option.map (fun v -> (ro.region.Simpoint.weight, v)) (f ro))
         covered)
  in
  let elfie_pred_cpi =
    Option.value ~default:0.0
      (weighted (fun ro ->
           Option.map (fun s -> s.Perf.mean_cpi) ro.elfie_sample))
  in
  let whole_cpi = native_whole.Perf.mean_cpi in
  let rel_err whole pred =
    if whole = 0.0 then 0.0 else Float.abs (whole -. pred) /. whole
  in
  (* A second sample whose trials all failed has no CPI (its mean is 0):
     its region is left out, as the farm driver and ablation A do. *)
  let elfie_error2 =
    if second_base_seed = None then None
    else
      weighted (fun ro ->
          match ro.elfie_sample2 with
          | Some s when s.Perf.failures < s.Perf.trials -> Some s.Perf.mean_cpi
          | Some _ | None -> None)
      |> Option.map (rel_err whole_cpi)
  in
  let sim_whole_cpi, sim_pred_cpi, sim_error =
    if with_simulation then begin
      let image = Elfie_workloads.Programs.image b.spec in
      let fs_init fs =
        if b.spec.Elfie_workloads.Programs.file_io then
          Elfie_kernel.Fs.add_file fs ~path:"/input.dat"
            Elfie_workloads.Programs.input_file_content
      in
      let whole =
        Elfie_coresim.Coresim.simulate ~mode:Elfie_coresim.Coresim.User_level
          ~from_marker:false ~fs_init Elfie_coresim.Coresim.skylake image
      in
      let sim_whole = whole.Elfie_coresim.Coresim.cpi in
      let pred = weighted (fun ro -> ro.sim_cpi) in
      ( Some sim_whole,
        pred,
        Option.map (fun p -> rel_err sim_whole p) pred )
    end
    else (None, None, None)
  in
  Metrics.set m_coverage coverage;
  Trace.end_span summarize_sp ~attrs:[ ("coverage", Trace.F coverage) ];
  {
    bench = b.bname;
    total_ins = sel.Simpoint.total_instructions;
    num_slices = sel.Simpoint.num_slices;
    k = sel.Simpoint.k;
    coverage;
    native_whole;
    elfie_pred_cpi;
    elfie_error = rel_err whole_cpi elfie_pred_cpi;
    elfie_error2;
    sim_whole_cpi;
    sim_pred_cpi;
    sim_error;
    regions;
    degradations = List.rev !degradations;
  }

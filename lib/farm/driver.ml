module Programs = Elfie_workloads.Programs
module Suite = Elfie_workloads.Suite
module Simpoint = Elfie_simpoint.Simpoint
module Perf = Elfie_perf.Perf
module Supervisor = Elfie_supervise.Supervisor
module Classify = Elfie_supervise.Classify
module Trace = Elfie_obs.Trace
module Diag = Elfie_util.Diag

type params = {
  slice_size : int64;
  max_k : int;
  dims : int;
  sp_seed : int64;
  warmup : int64;
  trials : int;
  base_seed : int64;
  max_regions : int;
}

let default_params =
  {
    slice_size = 10_000L;
    max_k = 10;
    dims = 15;
    sp_seed = 7L;
    warmup = 2_000L;
    trials = 3;
    base_seed = 2000L;
    max_regions = 0;
  }

let simpoint_params p =
  {
    Simpoint.slice_size = p.slice_size;
    warmup = p.warmup;
    max_k = p.max_k;
    dims = p.dims;
    seed = p.sp_seed;
  }

(* The SimPoint parameters' ranges are {!Simpoint.check_params}'s; a
   job also needs at least one trial. *)
let check_params p =
  if p.trials < 1 then
    Error (Printf.sprintf "trials must be positive, got %d" p.trials)
  else Simpoint.check_params (simpoint_params p)

type job = { j_name : string; j_spec : Programs.spec; j_params : params }

let job ?(params = default_params) ~name spec =
  { j_name = name; j_spec = spec; j_params = params }

let job_inputs j =
  let p = j.j_params in
  [
    j.j_name;
    j.j_spec.Programs.name;
    Int64.to_string p.slice_size;
    string_of_int p.max_k;
    string_of_int p.dims;
    Int64.to_string p.sp_seed;
    Int64.to_string p.warmup;
    string_of_int p.trials;
    Int64.to_string p.base_seed;
    string_of_int p.max_regions;
  ]

(* --- manifest --------------------------------------------------------------- *)

let manifest_of_string ~artifact contents =
  let parse_line lineno line jobs =
    Result.bind jobs @@ fun jobs ->
    let line =
      match String.index_opt line '#' with
      | Some i -> String.sub line 0 i
      | None -> line
    in
    let tokens =
      String.split_on_char ' ' line
      |> List.concat_map (String.split_on_char '\t')
      |> List.filter (fun t -> t <> "")
    in
    match tokens with
    | [] -> Ok jobs
    | name :: kvs -> (
        let bench = ref None and p = ref default_params in
        let bad = ref None in
        let set_i64 f v =
          match Int64.of_string_opt v with
          | Some v -> p := f !p v
          | None -> bad := Some (Printf.sprintf "not an integer: %s" v)
        in
        let set_int f v =
          match int_of_string_opt v with
          | Some v -> p := f !p v
          | None -> bad := Some (Printf.sprintf "not an integer: %s" v)
        in
        List.iter
          (fun kv ->
            match String.index_opt kv '=' with
            | None ->
                bad := Some (Printf.sprintf "expected key=value, got %s" kv)
            | Some i -> (
                let k = String.sub kv 0 i in
                let v = String.sub kv (i + 1) (String.length kv - i - 1) in
                match k with
                | "bench" -> bench := Some v
                | "slice" -> set_i64 (fun p v -> { p with slice_size = v }) v
                | "max-k" -> set_int (fun p v -> { p with max_k = v }) v
                | "dims" -> set_int (fun p v -> { p with dims = v }) v
                | "warmup" -> set_i64 (fun p v -> { p with warmup = v }) v
                | "trials" -> set_int (fun p v -> { p with trials = v }) v
                | "seed" -> set_i64 (fun p v -> { p with base_seed = v }) v
                | "sp-seed" -> set_i64 (fun p v -> { p with sp_seed = v }) v
                | "regions" ->
                    set_int (fun p v -> { p with max_regions = v }) v
                | k -> bad := Some (Printf.sprintf "unknown key %s" k)))
          kvs;
        (if !bad = None then
           match check_params !p with
           | Error msg -> bad := Some msg
           | Ok () -> ());
        match (!bad, !bench) with
        | Some msg, _ ->
            Error
              (Diag.f ~artifact Diag.Malformed "line %d: %s" lineno msg)
        | None, None ->
            Error
              (Diag.f ~artifact Diag.Malformed
                 "line %d: job %s has no bench= field" lineno name)
        | None, Some bench -> (
            match Suite.find bench with
            | None ->
                Error
                  (Diag.f ~artifact Diag.Malformed
                     "line %d: unknown benchmark %s" lineno bench)
            | Some b ->
                Ok ({ j_name = name; j_spec = b.Suite.spec; j_params = !p }
                    :: jobs)))
  in
  let lines = String.split_on_char '\n' contents in
  List.fold_left
    (fun (acc, lineno) line -> (parse_line lineno line acc, lineno + 1))
    (Ok [], 1) lines
  |> fst
  |> Result.map List.rev

let load_manifest path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | contents -> manifest_of_string ~artifact:path contents
  | exception Sys_error msg ->
      Error (Diag.f ~artifact:path Diag.Io_error "%s" msg)

(* --- one job ---------------------------------------------------------------- *)

type region_result = {
  rr_cluster : int;
  rr_weight : float;
  rr_cpi : float option;
  rr_trials : int;
  rr_failures : int;
}

type job_result = {
  jr_name : string;
  jr_k : int;
  jr_total_ins : int64;
  jr_regions : region_result list;
  jr_pred_cpi : float option;
  jr_hits : int;
  jr_misses : int;
}

type outcome = {
  o_name : string;
  o_skipped : bool;
  o_report : Supervisor.report;
  o_result : job_result option;
}

let workdir = "/work"

(* The cache-backed pipeline of one job. Every stage is keyed by program
   bytes + the parameters that determine it, so a warm store serves the
   whole chain without executing the program once, and a [max_k] change
   recomputes only the selection and downstream stages (the cached BBV
   profile is reused). *)
let compute_job ~store ~count j =
  let p = j.j_params in
  let program =
    Bytes.to_string (Elfie_elf.Image.write (Programs.image j.j_spec))
  in
  let run_spec () = Programs.run_spec ~seed:p.base_seed j.j_spec in
  let profile =
    Codec.cached_bbv ~on_result:count store
      (Codec.bbv_key ~program ~slice_size:p.slice_size ~seed:p.base_seed ())
      (fun () ->
        Trace.with_span "farm.profile"
          ~attrs:[ ("job", Trace.S j.j_name) ]
          (fun _ ->
            Elfie_pin.Bbv.profile (run_spec ()) ~slice_size:p.slice_size))
  in
  let sp_params = simpoint_params p in
  let sel =
    Codec.cached_selection ~on_result:count store
      (Codec.selection_key ~program ~params:sp_params ~seed:p.base_seed ())
      (fun () ->
        Trace.with_span "farm.select"
          ~attrs:[ ("job", Trace.S j.j_name) ]
          (fun _ -> Simpoint.select ~params:sp_params profile))
  in
  (* Highest-weight clusters first; a [max_regions] cap measures the
     regions that dominate the prediction. *)
  let regions =
    List.stable_sort
      (fun (a : Simpoint.region) (b : Simpoint.region) ->
        match compare b.weight a.weight with
        | 0 -> compare a.cluster b.cluster
        | c -> c)
      sel.Simpoint.regions
  in
  let regions =
    if p.max_regions > 0 then List.filteri (fun i _ -> i < p.max_regions) regions
    else regions
  in
  let measure (r : Simpoint.region) =
    Trace.with_span "farm.region"
      ~attrs:
        [ ("job", Trace.S j.j_name);
          ("cluster", Trace.I (Int64.of_int r.cluster)) ]
    @@ fun _ ->
    let pb_name = Printf.sprintf "%s_c%d" j.j_name r.cluster in
    let pinball =
      Codec.cached_pinball ~on_result:count store
        (Codec.pinball_key ~program ~start:r.start ~length:r.length
           ~seed:p.base_seed ())
        ~name:pb_name
        (fun () ->
          let cap =
            Elfie_pin.Logger.capture (run_spec ()) ~name:pb_name
              { Elfie_pin.Logger.start = r.start; length = r.length }
          in
          if not cap.Elfie_pin.Logger.reached_end then
            failwith
              (Printf.sprintf "region c%d ends past program exit" r.cluster);
          cap.Elfie_pin.Logger.pinball)
    in
    let image, sysstate =
      Codec.cached_elfie ~on_result:count store
        (Codec.elfie_key ~program ~start:r.start ~length:r.length
           ~warmup:r.warmup_actual ~seed:p.base_seed ())
        (fun () ->
          Elfie_core.Pinball2elf.region ~warmup:r.warmup_actual pinball)
    in
    let m =
      Codec.cached_measurement ~on_result:count store
        (Codec.measurement_key ~program ~start:r.start ~length:r.length
           ~warmup:r.warmup_actual ~trials:p.trials ~base_seed:p.base_seed)
        (fun () ->
          Trace.with_span "farm.measure"
            ~attrs:[ ("job", Trace.S j.j_name) ]
          @@ fun _ ->
          let sample =
            Perf.elfie_region ~trials:p.trials ~base_seed:p.base_seed
              ~fs_init:(fun fs ->
                Elfie_pin.Sysstate.install sysstate fs ~workdir)
              ~cwd:workdir image
          in
          {
            Codec.m_cluster = r.cluster;
            m_weight = r.weight;
            m_cpi = sample.Perf.mean_cpi;
            m_stddev = sample.Perf.stddev_cpi;
            m_instructions = sample.Perf.instructions;
            m_trials = sample.Perf.trials;
            m_failures = sample.Perf.failures;
          })
    in
    {
      rr_cluster = m.Codec.m_cluster;
      rr_weight = m.Codec.m_weight;
      rr_cpi =
        (if m.Codec.m_failures >= m.Codec.m_trials then None
         else Some m.Codec.m_cpi);
      rr_trials = m.Codec.m_trials;
      rr_failures = m.Codec.m_failures;
    }
  in
  let region_results = List.map measure regions in
  let num, den =
    List.fold_left
      (fun (num, den) rr ->
        match rr.rr_cpi with
        | Some cpi -> (num +. (rr.rr_weight *. cpi), den +. rr.rr_weight)
        | None -> (num, den))
      (0.0, 0.0) region_results
  in
  ( sel,
    region_results,
    (if den > 0.0 then Some (num /. den) else None),
    profile.Elfie_pin.Bbv.total_instructions )

let run_job ~store ?journal ?(resume = true) j =
  let hits = ref 0 and misses = ref 0 in
  let count = function `Hit -> incr hits | `Miss -> incr misses in
  let report, value =
    Trace.with_span "farm.job" ~attrs:[ ("job", Trace.S j.j_name) ]
    @@ fun _ ->
    Supervisor.supervise ~job:j.j_name ?journal ~resume
      ~inputs:(job_inputs j)
      (fun ~seed:_ ~max_ins:_ ->
        let sel, regions, pred, total_ins = compute_job ~store ~count j in
        ( {
            jr_name = j.j_name;
            jr_k = sel.Simpoint.k;
            jr_total_ins = total_ins;
            jr_regions = regions;
            jr_pred_cpi = pred;
            jr_hits = !hits;
            jr_misses = !misses;
          },
          Classify.Graceful ))
  in
  {
    o_name = j.j_name;
    o_skipped = report.Supervisor.skipped;
    o_report = report;
    o_result =
      (* Hit/miss counts accumulate across supervisor retries; refresh
         them so the result reflects the whole supervised job. *)
      Option.map
        (fun r -> { r with jr_hits = !hits; jr_misses = !misses })
        value;
  }

(* --- batches ---------------------------------------------------------------- *)

type batch = {
  outcomes : outcome list;
  b_hits : int;
  b_misses : int;
  b_skipped : int;
  b_quarantined : int;
  b_store_quarantines : Store.quarantine list;
}

let run ?jobs ~store ?journal ?resume specs =
  let names = List.map (fun j -> j.j_name) specs in
  if List.length (List.sort_uniq compare names) <> List.length names then
    invalid_arg "Elfie_farm.Driver.run: duplicate job names in manifest";
  let seen_quarantines = List.length (Store.quarantines store) in
  let labels = Array.of_list names in
  let outcomes =
    Elfie_util.Pool.map ?jobs
      ~label:(fun i -> labels.(i))
      (fun j -> run_job ~store ?journal ?resume j)
      specs
  in
  let count f = List.length (List.filter f outcomes) in
  {
    outcomes;
    b_hits =
      List.fold_left
        (fun acc o ->
          match o.o_result with Some r -> acc + r.jr_hits | None -> acc)
        0 outcomes;
    b_misses =
      List.fold_left
        (fun acc o ->
          match o.o_result with Some r -> acc + r.jr_misses | None -> acc)
        0 outcomes;
    b_skipped = count (fun o -> o.o_skipped);
    b_quarantined =
      count (fun o -> o.o_report.Supervisor.quarantined);
    b_store_quarantines =
      (let all = Store.quarantines store in
       List.filteri (fun i _ -> i >= seen_quarantines) all);
  }

let pp_outcome fmt o =
  if o.o_skipped then
    Format.fprintf fmt "%s: skipped (journalled graceful)" o.o_name
  else
    match o.o_result with
    | Some r ->
        Format.fprintf fmt
          "%s: k=%d regions=%d pred_cpi=%s cache %d hit / %d miss" o.o_name
          r.jr_k
          (List.length r.jr_regions)
          (match r.jr_pred_cpi with
          | Some c -> Printf.sprintf "%.3f" c
          | None -> "-")
          r.jr_hits r.jr_misses
    | None ->
        Format.fprintf fmt "%s: quarantined (%s after %d attempt(s))"
          o.o_name
          (Classify.to_string o.o_report.Supervisor.final)
          (List.length o.o_report.Supervisor.attempts)

let pp_batch fmt b =
  Format.fprintf fmt "@[<v>";
  List.iter (fun o -> Format.fprintf fmt "%a@," pp_outcome o) b.outcomes;
  Format.fprintf fmt
    "batch: %d job(s), %d skipped, %d quarantined, cache %d hit / %d miss"
    (List.length b.outcomes)
    b.b_skipped b.b_quarantined b.b_hits b.b_misses;
  if b.b_store_quarantines <> [] then
    Format.fprintf fmt ", %d corrupt artifact(s) quarantined"
      (List.length b.b_store_quarantines);
  Format.fprintf fmt "@]"

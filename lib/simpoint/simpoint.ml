type params = {
  slice_size : int64;
  warmup : int64;
  max_k : int;
  dims : int;
  seed : int64;
}

(* Scaled from the paper's 200 M slice / 800 M warmup by ~1/4000, keeping
   the 1:4 ratio; slices must stay long relative to working-set traversal
   transients or region measurements are dominated by cold-start noise. *)
let default_params =
  { slice_size = 50_000L; warmup = 200_000L; max_k = 50; dims = 15; seed = 97L }

let check_params p =
  let fail fmt = Printf.ksprintf (fun msg -> Error msg) fmt in
  if p.slice_size < 1L then fail "slice_size must be positive, got %Ld" p.slice_size
  else if p.warmup < 0L then fail "warmup must be non-negative, got %Ld" p.warmup
  else if p.max_k < 1 then fail "max_k must be positive, got %d" p.max_k
  else if p.dims < 1 then fail "dims must be positive, got %d" p.dims
  else Ok ()

type region = {
  cluster : int;
  slice_index : int;
  rank : int;
  weight : float;
  start : int64;
  length : int64;
  warmup_actual : int64;
}

type selection = {
  k : int;
  regions : region list;
  alternates : region list array;
  num_slices : int;
  total_instructions : int64;
  params : params;
}

(* Deterministic random sign for (block, dimension): the projection matrix
   never needs materialising. *)
let sign block dim =
  let h = Elfie_util.Rng.create (Int64.add (Int64.mul block 1099511628211L) (Int64.of_int dim)) in
  if Elfie_util.Rng.bool h then 1.0 else -1.0

(* Memoised sign rows: one [dims]-length row per distinct block, shared
   across every slice of a profile. Same values as calling [sign] per
   element, at one row initialisation per block instead of one fresh
   generator per (block, dimension) per slice — projection cost scales
   with the vectors' nnz, not dims x blocks x slices. *)
let make_signs ~dims =
  let memo : (int64, float array) Hashtbl.t = Hashtbl.create 1024 in
  fun block ->
    match Hashtbl.find_opt memo block with
    | Some row -> row
    | None ->
        let row = Array.init dims (sign block) in
        Hashtbl.add memo block row;
        row

(* The projection stays incremental over the sparse (block, count) pairs:
   each pair adds its normalised count into the [dims] accumulators, and
   no dense block-space intermediate ever exists. *)
let project_sparse signs ~dims (slice : Elfie_pin.Bbv.slice) =
  let v = Array.make dims 0.0 in
  let total = Float.max 1.0 (Int64.to_float slice.instructions) in
  Array.iter
    (fun (block, count) ->
      let c = float_of_int count /. total in
      let row = signs block in
      for d = 0 to dims - 1 do
        v.(d) <- v.(d) +. (c *. row.(d))
      done)
    slice.vector;
  v

let project_profile ~dims (profile : Elfie_pin.Bbv.profile) =
  let signs = make_signs ~dims in
  Array.of_list (List.map (project_sparse signs ~dims) profile.slices)

let region_of_slice params (profile : Elfie_pin.Bbv.profile) ~cluster ~rank idx =
  let slice = List.nth profile.slices idx in
  let slice_start = Int64.mul (Int64.of_int idx) params.slice_size in
  let warmup_actual = Int64.min params.warmup slice_start in
  {
    cluster;
    slice_index = idx;
    rank;
    weight = 0.0;
    start = Int64.sub slice_start warmup_actual;
    length = Int64.add warmup_actual slice.Elfie_pin.Bbv.instructions;
    warmup_actual;
  }

let select ?jobs ?(params = default_params) (profile : Elfie_pin.Bbv.profile) =
  let module Trace = Elfie_obs.Trace in
  let slices = Array.of_list profile.slices in
  if Array.length slices = 0 then invalid_arg "Simpoint.select: empty profile";
  let points =
    Trace.with_span "simpoint.project"
      ~attrs:
        [
          ("slices", Trace.I (Int64.of_int (Array.length slices)));
          ("dims", Trace.I (Int64.of_int params.dims));
        ]
      (fun _ -> project_profile ~dims:params.dims profile)
  in
  let rng = Elfie_util.Rng.create params.seed in
  let result =
    Trace.with_span "simpoint.cluster" (fun sp ->
        let r = Kmeans.best ?jobs ~rng ~max_k:params.max_k points in
        Trace.add_attr sp "k" (Trace.I (Int64.of_int r.Kmeans.k));
        r)
  in
  let n = Array.length slices in
  let cluster_sizes = Array.make result.k 0 in
  Array.iter (fun c -> cluster_sizes.(c) <- cluster_sizes.(c) + 1) result.assignments;
  (* Representative ranking. Three concerns, in order:
     - slices too early in the program cannot be preceded by a full
       warmup region, so their ELFies measure with cold state;
     - among members whose vectors are essentially equidistant from the
       centroid (bucketed distance), prefer the temporally central one:
       with scaled-down slice sizes, phase-boundary and first-traversal
       slices are microarchitecturally atypical even when their BBVs are
       not, and the cluster's temporal middle is its steady state;
     - finally, the exact distance. *)
  let warmup_slices =
    Int64.to_int (Int64.div params.warmup (max 1L params.slice_size))
  in
  let alternates =
    Array.init result.k (fun c ->
        let members =
          List.filter (fun i -> result.assignments.(i) = c) (List.init n Fun.id)
        in
        let median =
          let sorted = List.sort compare members in
          List.nth sorted (List.length sorted / 2)
        in
        let dist i = Kmeans.sq_dist points.(i) result.centroids.(c) in
        let key i =
          ( (if i < warmup_slices then 1 else 0),
            Float.round (dist i *. 1e3),
            abs (i - median),
            dist i )
        in
        let ranked = List.sort (fun a b -> compare (key a) (key b)) members in
        let weight = float_of_int cluster_sizes.(c) /. float_of_int n in
        List.mapi
          (fun rank idx ->
            { (region_of_slice params profile ~cluster:c ~rank idx) with weight })
          ranked)
  in
  let regions =
    Array.to_list alternates
    |> List.filter_map (function [] -> None | r :: _ -> Some r)
  in
  {
    k = result.k;
    regions;
    alternates;
    num_slices = n;
    total_instructions = profile.total_instructions;
    params;
  }

let predict measured =
  let num, den =
    List.fold_left
      (fun (num, den) (weight, value) -> (num +. (weight *. value), den +. weight))
      (0.0, 0.0) measured
  in
  if den > 0.0 then Some (num /. den) else None

let pp_selection fmt sel =
  Format.fprintf fmt "@[<v>simpoint: %d slices -> %d clusters (%Ld instructions)@,"
    sel.num_slices sel.k sel.total_instructions;
  List.iter
    (fun r ->
      Format.fprintf fmt "  cluster %d: slice %d, weight %.3f, region [%Ld, +%Ld)@,"
        r.cluster r.slice_index r.weight r.start r.length)
    sel.regions;
  Format.fprintf fmt "@]"

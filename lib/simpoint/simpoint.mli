(** SimPoint region selection over BBV profiles.

    Slices' sparse basic-block vectors are normalised, randomly
    projected to a low dimension, and clustered with k-means (BIC model
    selection up to [max_k]). Each cluster yields a representative slice
    (the one nearest the centroid) weighted by cluster population, plus
    ranked {e alternates} — the second/third-best representatives the
    paper uses to recover coverage when an ELFie fails to re-execute. *)

type params = {
  slice_size : int64;
  warmup : int64;  (** instructions of warmup preceding each slice *)
  max_k : int;
  dims : int;  (** random-projection dimensionality (SimPoint uses 15) *)
  seed : int64;
}

val default_params : params

(** [check_params p] is [Error msg] when a parameter is out of range:
    [slice_size], [max_k] and [dims] must be positive and [warmup]
    non-negative. Front-ends check what they read with it. *)
val check_params : params -> (unit, string) result

(** One selected simulation region: the representative slice plus its
    warmup prefix. *)
type region = {
  cluster : int;
  slice_index : int;
  rank : int;  (** 0 = representative, 1+ = alternates *)
  weight : float;  (** fraction of all slices in this cluster *)
  start : int64;  (** region start, in program instructions *)
  length : int64;  (** warmup + slice instructions *)
  warmup_actual : int64;
      (** warmup actually available (clipped at program start) *)
}

type selection = {
  k : int;
  regions : region list;  (** rank-0 region per cluster, by cluster id *)
  alternates : region list array;
      (** per cluster, regions ranked by distance (rank 0 first) *)
  num_slices : int;
  total_instructions : int64;
  params : params;
}

(** Random-sign projection of every slice's sparse BBV to [dims]
    dimensions, normalised by slice length. The projection is applied
    incrementally over the sparse (block, count) pairs — no dense
    intermediate — and one memoised sign row per distinct block is
    shared across slices: the same values as projecting each slice on
    its own, at one row initialisation per block for the whole
    profile. *)
val project_profile : dims:int -> Elfie_pin.Bbv.profile -> float array array

(** [jobs] bounds the clustering fan-out (see {!Kmeans.best}); results
    are identical at any value. *)
val select : ?jobs:int -> ?params:params -> Elfie_pin.Bbv.profile -> selection

(** The whole-program estimate from the regions that were measured,
    given as (weight, value) pairs: [sum_i weight_i * value_i / sum_i
    weight_i], both sums taken left to right. [None] when no weight was
    measured. The measured weights need not add up to 1 (a region that
    could not be measured is left out, and its weight with it). *)
val predict : (float * float) list -> float option

val pp_selection : Format.formatter -> selection -> unit

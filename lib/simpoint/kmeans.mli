(** k-means clustering with k-means++ seeding and BIC model selection —
    the SimPoint phase-classification core.

    The assign step uses Hamerly-style upper/lower distance bounds with
    centroid-move-aware maintenance: a point whose current centroid is
    provably the unique nearest (both bound tests are strict) skips the
    k-way distance scan. Pruning is an implementation detail, not a
    semantic: {!cluster} is bit-identical to Lloyd's algorithm with a
    full scan in every assign — assignments, centroids, inertia and RNG
    consumption — including on exact-tie inputs, where strictness forces
    the full scan and its lowest-index tie-break. *)

type result = {
  k : int;
  assignments : int array;  (** cluster index per point *)
  centroids : float array array;
  inertia : float;  (** sum of squared distances to assigned centroids *)
}

(** [cluster ~rng ~k points] runs Lloyd's algorithm (bound-pruned assign)
    on row-major points. Empty clusters re-seed on a random point drawn
    from a dedicated child stream of [rng], so reseed count never shifts
    the caller-visible stream. Raises [Invalid_argument] on empty input
    or [k < 1]. *)
val cluster : rng:Elfie_util.Rng.t -> k:int -> float array array -> result

(** [best ~rng ~max_k points] tries k = 1 .. max_k and picks the
    smallest k whose BIC score reaches 90% of the observed range —
    SimPoint's maxK model-selection rule. Each k clusters under its own
    RNG stream derived from one draw of [rng] and the sweep fans out
    across {!Elfie_util.Pool} ([jobs] defaults to the pool default), in
    fixed-size chunks with BIC-plateau early termination — results are
    bit-identical at any [jobs] value. *)
val best :
  ?jobs:int ->
  rng:Elfie_util.Rng.t ->
  max_k:int ->
  float array array ->
  result

(** Bayesian information criterion of a clustering (higher is better). *)
val bic : result -> float array array -> float

(** Squared Euclidean distance between equal-length vectors. *)
val sq_dist : float array -> float array -> float

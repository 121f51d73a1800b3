module Rng = Elfie_util.Rng
module Metrics = Elfie_obs.Metrics

type result = {
  k : int;
  assignments : int array;
  centroids : float array array;
  inertia : float;
}

let m_clusterings =
  Metrics.counter "elfie_kmeans_clusterings_total"
    ~help:"Lloyd's-algorithm runs"

let m_iterations =
  Metrics.counter "elfie_kmeans_iterations_total"
    ~help:"Assign/update iterations across clusterings"

let m_dist_evals =
  Metrics.counter "elfie_kmeans_distance_evals_total"
    ~help:"Point-to-centroid distance evaluations"

let sq_dist a b =
  let acc = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    let d = a.(i) -. b.(i) in
    acc := !acc +. (d *. d)
  done;
  !acc

(* k-means++ seeding: each next centre drawn proportionally to squared
   distance from the nearest already-chosen centre. *)
let seed_centroids ~rng ~k points =
  let n = Array.length points in
  let centroids = Array.make k points.(0) in
  centroids.(0) <- points.(Rng.int rng n);
  let d2 = Array.map (fun p -> sq_dist p centroids.(0)) points in
  for c = 1 to k - 1 do
    let total = Array.fold_left ( +. ) 0.0 d2 in
    let chosen =
      if total <= 0.0 then Rng.int rng n
      else begin
        let target = Rng.float rng *. total in
        let acc = ref 0.0 and pick = ref (n - 1) and found = ref false in
        Array.iteri
          (fun i d ->
            if not !found then begin
              acc := !acc +. d;
              if !acc >= target then begin
                pick := i;
                found := true
              end
            end)
          d2;
        !pick
      end
    in
    centroids.(c) <- points.(chosen);
    Array.iteri
      (fun i p -> d2.(i) <- Float.min d2.(i) (sq_dist p centroids.(c)))
      points
  done;
  Array.map Array.copy centroids

let max_iters = 50

(* Lloyd's algorithm with Hamerly-style upper/lower bound pruning in the
   assign step. A point skips the k-way scan only when its current
   centroid is provably the *unique* nearest (both bound tests are
   strict), so the result is bit-identical to a full scan in every
   assign — assignments, centroids, inertia and RNG consumption. *)
let cluster ~rng ~k points =
  let n = Array.length points in
  if n = 0 then invalid_arg "Kmeans.cluster: no points";
  if k < 1 then invalid_arg "Kmeans.cluster: k < 1";
  let k = min k n in
  let dim = Array.length points.(0) in
  let centroids = seed_centroids ~rng ~k points in
  (* Empty-cluster reseeds draw from a dedicated child stream (split off
     after seeding, so seeding draws are unaffected): however many
     reseeds a run performs, the caller's stream advances by the same
     amount. *)
  let reseed_rng = Rng.split rng in
  let assignments = Array.make n 0 in
  let dist_evals = ref 0 in
  let sqd a b =
    incr dist_evals;
    sq_dist a b
  in
  (* Hamerly bounds: [upper.(i)] bounds d(i, centroid of its cluster)
     from above (exact right after a tighten or full scan), [lower.(i)]
     bounds the distance to every *other* centroid from below, and
     [half_sep.(c)] is half the distance from c to its nearest other
     centroid. If upper < max(half_sep, lower) — strictly — the current
     centroid is the unique nearest and the k-way scan is skipped. *)
  let upper = Array.make n infinity in
  let lower = Array.make n 0.0 in
  let half_sep = Array.make k 0.0 in
  let refresh_half_sep () =
    for c = 0 to k - 1 do
      let m = ref infinity in
      for c' = 0 to k - 1 do
        if c' <> c then
          m := Float.min !m (sqrt (sqd centroids.(c) centroids.(c')))
      done;
      half_sep.(c) <- (if !m = infinity then infinity else 0.5 *. !m)
    done
  in
  let assign () =
    refresh_half_sep ();
    let changed = ref false in
    for i = 0 to n - 1 do
      let p = points.(i) in
      let a = assignments.(i) in
      let guard = Float.max half_sep.(a) lower.(i) in
      if upper.(i) >= guard then begin
        upper.(i) <- sqrt (sqd p centroids.(a));
        if upper.(i) >= guard then begin
          (* Full scan with a strict [<]: the lowest-index centroid
             wins ties. *)
          let best = ref 0
          and best_d = ref infinity
          and second = ref infinity in
          for c = 0 to k - 1 do
            let d = sqd p centroids.(c) in
            if d < !best_d then begin
              second := !best_d;
              best_d := d;
              best := c
            end
            else if d < !second then second := d
          done;
          if a <> !best then begin
            assignments.(i) <- !best;
            changed := true
          end;
          upper.(i) <- sqrt !best_d;
          lower.(i) <- sqrt !second
        end
      end
    done;
    !changed
  in
  let update () =
    let sums = Array.make_matrix k dim 0.0 in
    let counts = Array.make k 0 in
    Array.iteri
      (fun i p ->
        let c = assignments.(i) in
        counts.(c) <- counts.(c) + 1;
        for j = 0 to dim - 1 do
          sums.(c).(j) <- sums.(c).(j) +. p.(j)
        done)
      points;
    let moved = Array.make k 0.0 in
    for c = 0 to k - 1 do
      let next =
        if counts.(c) > 0 then begin
          for j = 0 to dim - 1 do
            sums.(c).(j) <- sums.(c).(j) /. float_of_int counts.(c)
          done;
          sums.(c)
        end
        else
          (* Re-seed an empty cluster on a random point (dedicated
             stream, see above). *)
          Array.copy points.(Rng.int reseed_rng n)
      in
      moved.(c) <- sqrt (sqd centroids.(c) next);
      centroids.(c) <- next
    done;
    (* Centroid-move-aware bound maintenance: a point's own centroid
       moved by [moved], any other centroid by at most the largest
       move. *)
    let max_move = Array.fold_left Float.max 0.0 moved in
    for i = 0 to n - 1 do
      upper.(i) <- upper.(i) +. moved.(assignments.(i));
      lower.(i) <- lower.(i) -. max_move
    done
  in
  let iters = ref 0 in
  let converged = ref false in
  (* Every [update] is followed by an [assign] that re-checks its
     centroids: the loop never ends on an update nothing re-assigned. *)
  while (not !converged) && !iters < max_iters do
    let changed = assign () in
    incr iters;
    if not changed then converged := true else if !iters < max_iters then update ()
  done;
  let inertia =
    let acc = ref 0.0 in
    Array.iteri
      (fun i p -> acc := !acc +. sq_dist p centroids.(assignments.(i)))
      points;
    !acc
  in
  Metrics.inc m_clusterings;
  Metrics.inc m_iterations ~by:(float_of_int !iters);
  Metrics.inc m_dist_evals ~by:(float_of_int !dist_evals);
  { k; assignments; centroids; inertia }

let bic result points =
  let n = float_of_int (Array.length points) in
  let dim = float_of_int (Array.length points.(0)) in
  let k = float_of_int result.k in
  (* Spherical-Gaussian likelihood with a per-dimension variance
     estimate; the n*d factor keeps the fit term commensurate with the
     k*(d+1) parameter penalty at any dimensionality. *)
  let variance = Float.max (result.inertia /. (n *. dim)) 1e-9 in
  let log_likelihood = -0.5 *. n *. dim *. (log variance +. 1.0) in
  let params = k *. (dim +. 1.0) in
  log_likelihood -. (0.5 *. params *. log n)

(* The k-sweep runs in fixed-size chunks so the early-termination
   decision depends only on chunk boundaries, never on how many pool
   workers evaluated a chunk. *)
let chunk_size = 8

(* SimPoint's model-selection rule: score every k, then take the
   *smallest* k whose BIC reaches 90% of the observed score range — a
   plain argmax overfits, since BIC keeps creeping up with k.

   Each k clusters under its own child stream derived from one draw of
   the caller's generator, so the per-k work is order-independent and
   fans out across {!Elfie_util.Pool} with bit-identical results at any
   [jobs] setting. *)
let best ?jobs ~rng ~max_k points =
  let n = Array.length points in
  let kmax = max 1 (min max_k n) in
  let base = Rng.next64 rng in
  let eval k =
    let child =
      Rng.create
        (Int64.add base (Int64.mul (Int64.of_int k) 0x9E3779B97F4A7C15L))
    in
    let r = cluster ~rng:child ~k points in
    (r, bic r points)
  in
  let candidates = ref [] (* reversed *) in
  let bmax = ref neg_infinity and bmin = ref infinity in
  let next_k = ref 1 in
  let stop = ref false in
  while (not !stop) && !next_k <= kmax do
    let count = min chunk_size (kmax - !next_k + 1) in
    let ks = List.init count (fun i -> !next_k + i) in
    next_k := !next_k + count;
    let evaluated = Elfie_util.Pool.map ?jobs eval ks in
    let old_bmax = !bmax and old_bmin = !bmin in
    List.iter
      (fun (_, s) ->
        bmax := Float.max !bmax s;
        bmin := Float.min !bmin s)
      evaluated;
    candidates := List.rev_append evaluated !candidates;
    (* BIC-plateau early termination: the 90% threshold depends only on
       the score range, so once a whole chunk leaves the range untouched
       (treat it as converged) and some k already qualifies, later —
       larger — k can no longer become the smallest qualifying choice. *)
    if !next_k <= kmax && old_bmax = !bmax && old_bmin = !bmin then begin
      let threshold = !bmin +. (0.9 *. (!bmax -. !bmin)) in
      if List.exists (fun (_, s) -> s >= threshold) !candidates then
        stop := true
    end
  done;
  let candidates = List.rev !candidates in
  let threshold = !bmin +. (0.9 *. (!bmax -. !bmin)) in
  match List.find_opt (fun (_, s) -> s >= threshold) candidates with
  | Some (r, _) -> r
  | None -> fst (List.hd candidates)

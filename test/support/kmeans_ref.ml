(* Lloyd's algorithm with a full k-way scan in every assign step: the
   reference {!Elfie_simpoint.Kmeans.cluster} must match bit for bit —
   assignments, centroids, inertia and RNG consumption. It repeats the
   production code's k-means++ seeding, strict lowest-index tie-break,
   empty-cluster reseed stream and iteration cap, and shares no code
   with it beyond [sq_dist]. *)

module Rng = Elfie_util.Rng
module Kmeans = Elfie_simpoint.Kmeans

let max_iters = 50

(* k-means++: each next centre drawn proportionally to squared distance
   from the nearest centre already chosen. *)
let seed_centroids ~rng ~k points =
  let n = Array.length points in
  let centroids = Array.make k points.(0) in
  centroids.(0) <- points.(Rng.int rng n);
  let d2 = Array.map (fun p -> Kmeans.sq_dist p centroids.(0)) points in
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
      (fun i p -> d2.(i) <- Float.min d2.(i) (Kmeans.sq_dist p centroids.(c)))
      points
  done;
  Array.map Array.copy centroids

let cluster_naive ~rng ~k points =
  let n = Array.length points in
  if n = 0 then invalid_arg "Kmeans.cluster: no points";
  if k < 1 then invalid_arg "Kmeans.cluster: k < 1";
  let k = min k n in
  let dim = Array.length points.(0) in
  let centroids = seed_centroids ~rng ~k points in
  let reseed_rng = Rng.split rng in
  let assignments = Array.make n 0 in
  let assign () =
    let changed = ref false in
    Array.iteri
      (fun i p ->
        let best = ref 0 and best_d = ref infinity in
        for c = 0 to k - 1 do
          let d = Kmeans.sq_dist p centroids.(c) in
          if d < !best_d then begin
            best_d := d;
            best := c
          end
        done;
        if assignments.(i) <> !best then begin
          assignments.(i) <- !best;
          changed := true
        end)
      points;
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
    for c = 0 to k - 1 do
      centroids.(c) <-
        (if counts.(c) > 0 then
           Array.map (fun s -> s /. float_of_int counts.(c)) sums.(c)
         else Array.copy points.(Rng.int reseed_rng n))
    done
  in
  let iters = ref 0 and converged = ref false in
  while (not !converged) && !iters < max_iters do
    let changed = assign () in
    incr iters;
    if not changed then converged := true
    else if !iters < max_iters then update ()
  done;
  let inertia = ref 0.0 in
  Array.iteri
    (fun i p ->
      inertia := !inertia +. Kmeans.sq_dist p centroids.(assignments.(i)))
    points;
  { Kmeans.k; assignments; centroids; inertia = !inertia }

(* Order statistics. [quartiles] follows Python's
   [statistics.quantiles(xs, n=4)] (the default "exclusive" method), so
   spreads computed here match the ones computed from the JSON lines by
   other tools. *)

let sorted xs = List.sort compare xs |> Array.of_list

let quartiles xs =
  let a = sorted xs in
  match Array.length a with
  | 0 -> invalid_arg "Stats.quartiles: no values"
  | 1 -> (a.(0), a.(0), a.(0))
  | n ->
      let m = n + 1 in
      let q i =
        let j = max 1 (min (n - 1) (i * m / 4)) in
        let delta = (i * m) - (j * 4) in
        ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
        /. 4.0
      in
      (q 1, q 2, q 3)

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no values"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Interquartile range as a share of the median. *)
let spread xs =
  let q1, _, q3 = quartiles xs in
  let m = median xs in
  if m = 0.0 then 0.0 else (q3 -. q1) /. Float.abs m

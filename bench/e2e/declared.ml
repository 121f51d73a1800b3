(* The metrics BENCHMARK.json declares, compiled in from it (see dune):
   the one place their names, units, directions and bounds are written.
   Code that computes a metric looks it up here by name. *)

module Json = Elfie_obs.Json

type metric = {
  name : string;
  unit_ : string;
  lower : bool;  (** lower is better *)
  bound : float option;  (** end-to-end metrics only *)
}

let parse key =
  let fail what = failwith ("BENCHMARK.json: " ^ what) in
  let doc =
    match Json.parse Benchmark_json.text with Ok j -> j | Error e -> fail e
  in
  match Option.bind (Json.member key doc) Json.to_list with
  | None -> fail ("no " ^ key ^ " list")
  | Some ms ->
      List.map
        (fun m ->
          let str k = Option.bind (Json.member k m) Json.to_str in
          match (str "name", str "unit", str "better") with
          | Some name, Some unit_, Some (("lower" | "higher") as better) ->
              { name; unit_; lower = better = "lower";
                bound = Option.bind (Json.member "bound" m) Json.to_float }
          | _ -> fail ("malformed " ^ key ^ " entry"))
        ms

let end_to_end = parse "end_to_end"
let per_layer = parse "per_layer"
let better m = if m.lower then "lower" else "higher"

(* Fails unless [names] lists exactly the declared [metrics], so a metric
   added to or dropped from either side cannot go unnoticed. *)
let check ~what metrics names =
  let sort = List.sort_uniq compare in
  let declared = sort (List.map (fun m -> m.name) metrics) in
  let computed = sort names in
  if declared <> computed then
    let missing a b = List.filter (fun n -> not (List.mem n b)) a in
    failwith
      (Printf.sprintf
         "%s: BENCHMARK.json and bench/e2e disagree (declared only: [%s]; computed only: [%s])"
         what
         (String.concat " " (missing declared computed))
         (String.concat " " (missing computed declared)))

(* Paired comparison of a parent and a change.

   Both inputs are --out files of untraced runs made in alternating
   order (parent, change, change, parent, ...), so the i-th record of a
   workload in A and the i-th in B form a pair measured close in time.
   Direction and regression bound of each metric are BENCHMARK.json's.

   Per workload, first:
   - incorrect: a run on either side failed its output check; nothing
     else is judged for that workload;
   - failed operations: a regression when the change's share of failed
     operations is above the parent's.
   Then per end-to-end metric:
   - gain: the change wins at least 9 of 10 pairs (ties count for
     neither) and the medians differ by more than the parent's
     interquartile range, and no more operations failed than at the
     parent ("gain refused" otherwise);
   - regression: the change's median is worse than the parent's by more
     than the bound;
   - unresolved: the parent's own spread exceeds the bound, unless every
     change run beats every parent run;
   - no regression: otherwise.
   The exit code is 1 on a regression, an incorrect run or too few
   pairs. *)

module Json = Elfie_obs.Json

let min_pairs = 10

let fail fmt = Printf.ksprintf failwith fmt

type record = {
  workload : string;
  settings : string;  (** seed, size, jobs and seconds: equal within a comparison *)
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
}

type row = { w : string; metric : string; detail : string; verdict : string }

let str k j = Option.bind (Json.member k j) Json.to_str
let flt k j = Option.bind (Json.member k j) Json.to_float

(* The record of an untraced run; None for a traced one. *)
let record_of_json j =
  match (str "workload" j, Json.member "trace" j, Json.member "result" j) with
  | Some workload, Some (Json.Bool false), Some r ->
      let settings =
        List.map
          (fun k -> Option.fold ~none:"" ~some:Json.to_string (Json.member k j))
          [ "seed"; "size"; "jobs"; "seconds" ]
      in
      let count k =
        match flt k r with Some x -> int_of_float x | None -> fail "%s: no %s" workload k
      in
      let metrics =
        match Json.member "metrics" r with
        | Some (Json.Obj ms) ->
            List.filter_map (fun (n, v) -> Option.map (fun x -> (n, x)) (flt "value" v)) ms
        | _ -> fail "%s: no metrics" workload
      in
      Some
        { workload; settings = String.concat " " settings;
          correct = Json.member "correct" r = Some (Json.Bool true);
          attempted = count "attempted"; failed = count "failed"; metrics }
  | _ -> None

let records path =
  In_channel.with_open_text path In_channel.input_lines
  |> List.filter (fun l -> String.trim l <> "")
  |> List.filter_map (fun line ->
         match Json.parse line with
         | Error e -> fail "%s: %s" path e
         | Ok j -> record_of_json j)

let better ~lower x y = if lower then x < y else x > y

let verdict ~lower ~bound ~wins ~more_failed parent change =
  let better = better ~lower in
  let q1, mp, q3 = Stats.quartiles parent in
  let _, mc, _ = Stats.quartiles change in
  let pairs = List.length parent in
  let worse = (if lower then mc -. mp else mp -. mc) /. Float.abs mp in
  let every = List.for_all (fun c -> List.for_all (better c) parent) change in
  if 10 * wins >= 9 * pairs && Float.abs (mc -. mp) > q3 -. q1 && better mc mp then
    if more_failed then "gain refused: more operations failed" else "gain"
  else if every then "better in every run"
  else if Stats.spread parent > bound then "unresolved"
  else if worse > bound then "regression"
  else "no regression"

let q xs =
  let q1, med, q3 = Stats.quartiles xs in
  Printf.sprintf "%.6g [%.6g, %.6g]" med q1 q3

let failed_share rs =
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 rs in
  (sum (fun r -> r.failed), sum (fun r -> r.attempted))

(* The rows for one workload's [n] pairs. *)
let workload_rows ~(bounds : Declared.metric list) w pa pb =
  let incorrect side rs =
    match List.length (List.filter (fun r -> not r.correct) rs) with
    | 0 -> []
    | k -> [ Printf.sprintf "%d of %d %s runs failed the output check" k (List.length rs) side ]
  in
  match incorrect "parent" pa @ incorrect "change" pb with
  | _ :: _ as why ->
      [ { w; metric = "-"; detail = String.concat "; " why; verdict = "incorrect" } ]
  | [] ->
      let fp, ap = failed_share pa and fc, ac = failed_share pb in
      (* fc/ac > fp/ap, without dividing by an empty side *)
      let more_failed = fc * ap > fp * ac in
      { w; metric = "failed_ops";
        detail = Printf.sprintf "parent %d/%d, change %d/%d" fp ap fc ac;
        verdict = (if more_failed then "regression" else "no regression") }
      :: List.filter_map
           (fun (m : Declared.metric) ->
             let values rs = List.filter_map (fun r -> List.assoc_opt m.name r.metrics) rs in
             let parent = values pa and change = values pb in
             let n = List.length pa in
             if List.length parent <> n || List.length change <> n then None
             else
               let wins =
                 List.length
                   (List.filter Fun.id (List.map2 (better ~lower:m.lower) change parent))
               in
               let bound = Option.value ~default:0.0 m.bound in
               Some
                 { w; metric = m.name;
                   detail =
                     Printf.sprintf "%-31s %-31s %2d/%-3d" (q parent) (q change) wins n;
                   verdict = verdict ~lower:m.lower ~bound ~wins ~more_failed parent change })
           bounds

let compare_records ~bounds ra rb =
  let workloads = List.sort_uniq compare (List.map (fun r -> r.workload) ra) in
  if workloads = [] then fail "no untraced (--trace 0) records";
  List.concat_map
    (fun w ->
      let side rs = List.filter (fun r -> r.workload = w) rs in
      let settings =
        List.sort_uniq compare (List.map (fun r -> r.settings) (side ra @ side rb))
      in
      if List.length settings > 1 then
        fail "%s: runs differ in seed, size, jobs or seconds (%s)" w
          (String.concat " | " settings);
      let n = min (List.length (side ra)) (List.length (side rb)) in
      if n < min_pairs then
        [ { w; metric = "-";
            detail = Printf.sprintf "only %d pairs; at least %d are needed" n min_pairs;
            verdict = "too few pairs" } ]
      else
        let take rs = List.filteri (fun i _ -> i < n) rs in
        workload_rows ~bounds w (take (side ra)) (take (side rb)))
    workloads

let exit_code rows =
  if
    List.exists
      (fun r -> List.mem r.verdict [ "regression"; "incorrect"; "too few pairs" ])
      rows
  then 1
  else 0

let run a b =
  match compare_records ~bounds:Declared.end_to_end (records a) (records b) with
  | rows ->
      Printf.printf "%-17s %-13s %-31s %-31s %-6s %s\n" "workload" "metric"
        "parent median [q1, q3]" "change median [q1, q3]" "wins" "verdict";
      List.iter
        (fun r -> Printf.printf "%-17s %-13s %-70s %s\n" r.w r.metric r.detail r.verdict)
        rows;
      exit_code rows
  | exception (Failure msg | Sys_error msg) ->
      prerr_endline ("compare: " ^ msg);
      2

(* Verdicts of --compare on made-up runs (part of @bench-e2e-smoke): a
   clear gain is called one, but not when the change fails more
   operations or any of its runs fails the output check. *)

let bounds =
  [ { Declared.name = "wall_s"; unit_ = "s"; lower = true; bound = Some 0.25 } ]

(* Ten runs of one workload around [wall] seconds. *)
let runs ?(incorrect = -1) ?(failed = 0) wall =
  List.init 10 (fun i ->
      { Compare.workload = "w"; settings = "1 full 2 10"; correct = i <> incorrect;
        attempted = 100; failed;
        metrics = [ ("wall_s", wall *. (1.0 +. (0.01 *. float_of_int (i mod 3)))) ] })

let verdict rows metric =
  match List.find_opt (fun (r : Compare.row) -> r.metric = metric) rows with
  | Some r -> r.verdict
  | None -> "(no row)"

let () =
  let parent = runs 10.0 in
  let case (name, change, metric, want, code) =
    let rows = Compare.compare_records ~bounds parent change in
    let got = verdict rows metric and got_code = Compare.exit_code rows in
    let ok = got = want && got_code = code in
    Printf.printf "%-26s %-10s %s, exit %d%s\n" name metric got got_code
      (if ok then "" else Printf.sprintf "  <- expected %s, exit %d" want code);
    ok
  in
  let results =
    List.map case
      [ ("faster", runs 8.0, "wall_s", "gain", 0);
        ( "faster, more failed ops", runs ~failed:1 8.0, "wall_s",
          "gain refused: more operations failed", 1 );
        ("faster, more failed ops", runs ~failed:1 8.0, "failed_ops", "regression", 1);
        ("faster, one run incorrect", runs ~incorrect:4 8.0, "-", "incorrect", 1);
        ("slower", runs 13.0, "wall_s", "regression", 1) ]
  in
  if not (List.for_all Fun.id results) then exit 1

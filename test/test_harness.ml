(* Tests for the experiment harness: rendering, the registry, statistics
   helpers and the validation pipeline. *)

module Perf = Elfie_perf.Perf
module Render = Elfie_harness.Render
module Pipeline = Elfie_harness.Pipeline

let test_table_alignment () =
  let t = Render.table ~header:[ "a"; "bb" ] [ [ "xxx"; "y" ]; [ "z" ] ] in
  let lines = String.split_on_char '\n' t in
  Alcotest.(check int) "header+rule+2 rows (+nl)" 5 (List.length lines);
  let widths = List.map String.length (List.filteri (fun i _ -> i < 4) lines) in
  match widths with
  | [ w1; w2; w3; w4 ] ->
      Alcotest.(check bool) "aligned" true (w1 = w2 && w2 = w3 && w3 >= w4)
  | _ -> Alcotest.fail "unexpected shape"

let test_bars_scaling () =
  let out =
    Render.bars ~title:"t" [ ("a", [ ("s", 1.0) ]); ("b", [ ("s", 2.0) ]) ]
  in
  Alcotest.(check bool) "contains hashes" true (String.contains out '#');
  Alcotest.(check bool) "contains values" true
    (String.length out > 0 && String.contains out '2')

let test_pct () = Alcotest.(check string) "pct" "12.5%" (Render.pct 0.125)

let test_registry_complete () =
  let ids = Elfie_harness.Registry.ids in
  List.iter
    (fun id -> Alcotest.(check bool) id true (List.mem id ids))
    [ "table1"; "table2"; "table3"; "table4"; "table5"; "fig9"; "fig10"; "fig11" ];
  Alcotest.(check int) "no duplicates" (List.length ids)
    (List.length (List.sort_uniq compare ids));
  Alcotest.(check bool) "find works" true
    (Elfie_harness.Registry.find "fig9" <> None);
  Alcotest.(check bool) "unknown id" true (Elfie_harness.Registry.find "fig99" = None)

let test_perf_stats () =
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Perf.mean [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "stddev" 1.0 (Perf.stddev [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "singleton stddev" 0.0 (Perf.stddev [ 5.0 ]);
  Alcotest.(check (float 1e-9)) "empty mean" 0.0 (Perf.mean [])

let test_perf_whole_program () =
  let s = Perf.whole_program ~trials:2 (Tutil.tiny_run_spec "perfwp") in
  Alcotest.(check int) "no failures" 0 s.Perf.failures;
  Alcotest.(check bool) "cpi positive" true (s.Perf.mean_cpi > 0.0);
  (* Two trials with different timer seeds: nonzero spread. *)
  Alcotest.(check bool) "spread" true (s.Perf.stddev_cpi > 0.0)

let test_pipeline_validate_small () =
  let b = { Elfie_workloads.Suite.bname = "tinyval"; spec = Tutil.tiny_spec "tinyval" } in
  let params =
    { Elfie_simpoint.Simpoint.default_params with
      slice_size = 10_000L; warmup = 20_000L; max_k = 6 }
  in
  let v = Pipeline.validate ~params ~trials:2 b in
  Alcotest.(check bool) "covered" true (v.Pipeline.coverage > 0.5);
  Alcotest.(check bool) "prediction sane" true
    (v.Pipeline.elfie_pred_cpi > 0.0 && v.Pipeline.elfie_error < 1.0);
  Alcotest.(check bool) "regions reported" true (v.Pipeline.regions <> [])

let test_make_region_elfie_none_past_end () =
  let rs = Tutil.tiny_run_spec "prv" in
  Alcotest.(check bool) "unreachable region" true
    (Pipeline.make_region_elfie rs ~name:"x" ~warmup:0L ~start:99_000_000L
       ~length:1_000L
    = None)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_experiment_smoke () =
  (* The cheap experiments run end to end and produce their headline
     rows (memoized, so this also warms the bench harness path). *)
  let out4 = (Option.get (Elfie_harness.Registry.find "table4")).run () in
  Alcotest.(check bool) "table4 ring0 row" true
    (contains ~sub:"ring0 instructions" out4);
  Alcotest.(check bool) "table4 footprint row" true
    (contains ~sub:"data footprint" out4);
  let out11 = (Option.get (Elfie_harness.Registry.find "fig11")).run () in
  Alcotest.(check bool) "fig11 has all apps" true
    (contains ~sub:"657.xz_s.1" out11 && contains ~sub:"619.lbm_s" out11);
  Alcotest.(check bool) "fig11 both modes" true
    (contains ~sub:"pinball-sim" out11 && contains ~sub:"ELFie-sim" out11)

(* Graceful recovery, layer 2: regions whose ELFies never execute
   gracefully (here: counters disarmed for every rank-0 representative,
   so no trial at any seed can succeed) must fall back to the next
   ranked alternate, and the fallback must be recorded. *)
let test_recovery_alternate_region () =
  let b =
    { Elfie_workloads.Suite.bname = "tinyalt"; spec = Tutil.tiny_spec "tinyalt" }
  in
  let params =
    { Elfie_simpoint.Simpoint.default_params with
      slice_size = 10_000L; warmup = 20_000L; max_k = 6 }
  in
  let sabotage (r : Elfie_simpoint.Simpoint.region) options =
    if r.Elfie_simpoint.Simpoint.rank = 0 then
      { options with Elfie_core.Pinball2elf.arm_counters = false }
    else options
  in
  let v =
    Pipeline.validate ~params ~trials:2 ~max_seed_retries:1
      ~elfie_options:sabotage b
  in
  Alcotest.(check bool) "still covered" true (v.Pipeline.coverage > 0.0);
  Alcotest.(check bool) "no rank-0 region used" true
    (List.for_all
       (fun ro -> ro.Pipeline.rank_used <> Some 0)
       v.Pipeline.regions);
  Alcotest.(check bool) "alternate fallback recorded" true
    (List.exists
       (fun d ->
         match d.Pipeline.deg_action with
         | Pipeline.Alternate_used { rank } -> rank > 0
         | _ -> false)
       v.Pipeline.degradations)

(* Graceful recovery, layer 1: an ELFie built with allocatable stack
   sections and run under the capture's own seed collides with the
   (identically randomized) native stack — the paper's stack-collision
   failure. The pipeline must retry under fresh seeds or fall back to an
   alternate region, and record what it did. *)
let test_recovery_stack_collision () =
  let b =
    { Elfie_workloads.Suite.bname = "tinystk"; spec = Tutil.tiny_spec "tinystk" }
  in
  let params =
    { Elfie_simpoint.Simpoint.default_params with
      slice_size = 10_000L; warmup = 20_000L; max_k = 6 }
  in
  let alloc_stacks _r options =
    { options with Elfie_core.Pinball2elf.alloc_stack_sections = true }
  in
  (* base_seed 42L = the capture seed: trial 0 reproduces the capture's
     stack randomization exactly, so the collision is deterministic. *)
  let v =
    Pipeline.validate ~params ~trials:1 ~base_seed:42L ~max_seed_retries:4
      ~elfie_options:alloc_stacks b
  in
  Alcotest.(check bool) "recovered coverage" true (v.Pipeline.coverage > 0.0);
  Alcotest.(check bool) "degradation recorded" true
    (v.Pipeline.degradations <> []);
  Alcotest.(check bool) "recovery action is retry or alternate" true
    (List.exists
       (fun d ->
         match d.Pipeline.deg_action with
         | Pipeline.Seed_retried _ | Pipeline.Alternate_used _ -> true
         | Pipeline.Quarantined _ | Pipeline.Abandoned -> false)
       v.Pipeline.degradations)

(* The second instance weights only regions whose second sample has a
   graceful trial. Here every second sample collides (base seed 42L is
   the capture seed, and each region's first sample only succeeded
   after a reseed), so there is no second prediction: a failed sample's
   CPI of 0 must not count as one. *)
let test_second_instance_skips_failed_regions () =
  let b =
    { Elfie_workloads.Suite.bname = "tinystk"; spec = Tutil.tiny_spec "tinystk" }
  in
  let params =
    { Elfie_simpoint.Simpoint.default_params with
      slice_size = 10_000L; warmup = 20_000L; max_k = 6 }
  in
  let alloc_stacks _r options =
    { options with Elfie_core.Pinball2elf.alloc_stack_sections = true }
  in
  let v =
    Pipeline.validate ~params ~trials:1 ~base_seed:42L ~second_base_seed:42L
      ~max_seed_retries:4 ~elfie_options:alloc_stacks b
  in
  Alcotest.(check bool) "first instance covered" true (v.Pipeline.coverage > 0.0);
  Alcotest.(check bool) "every second sample failed" true
    (List.for_all
       (fun ro ->
         match ro.Pipeline.elfie_sample2 with
         | Some s -> s.Perf.failures = s.Perf.trials
         | None -> true)
       v.Pipeline.regions);
  Alcotest.(check (option (float 0.0))) "no second prediction" None
    v.Pipeline.elfie_error2

let suite =
  [
    Alcotest.test_case "experiment smoke (table4, fig11)" `Slow test_experiment_smoke;
    Alcotest.test_case "recovery: alternate region" `Slow
      test_recovery_alternate_region;
    Alcotest.test_case "recovery: stack collision" `Slow
      test_recovery_stack_collision;
    Alcotest.test_case "table alignment" `Quick test_table_alignment;
    Alcotest.test_case "bars scaling" `Quick test_bars_scaling;
    Alcotest.test_case "pct" `Quick test_pct;
    Alcotest.test_case "registry complete" `Quick test_registry_complete;
    Alcotest.test_case "perf stats" `Quick test_perf_stats;
    Alcotest.test_case "perf whole program" `Quick test_perf_whole_program;
    Alcotest.test_case "pipeline validate (small)" `Slow test_pipeline_validate_small;
    Alcotest.test_case "region past end" `Quick test_make_region_elfie_none_past_end;
    Alcotest.test_case "second instance skips failed regions" `Slow
      test_second_instance_skips_failed_regions;
  ]

(* Tests for k-means clustering and SimPoint region selection. *)

module Kmeans = Elfie_simpoint.Kmeans
module Simpoint = Elfie_simpoint.Simpoint
open Elfie_test_support

let rng () = Elfie_util.Rng.create 123L

(* Three well-separated blobs in 2D. *)
let blobs () =
  let r = rng () in
  let blob cx cy =
    List.init 20 (fun _ ->
        [| cx +. Elfie_util.Rng.float r; cy +. Elfie_util.Rng.float r |])
  in
  Array.of_list (blob 0.0 0.0 @ blob 10.0 0.0 @ blob 0.0 10.0)

let test_kmeans_recovers_blobs () =
  let points = blobs () in
  let result = Kmeans.cluster ~rng:(rng ()) ~k:3 points in
  (* Points within a blob share a label; across blobs labels differ. *)
  let label i = result.Kmeans.assignments.(i) in
  for b = 0 to 2 do
    for i = 1 to 19 do
      Alcotest.(check int) "blob is one cluster" (label (b * 20)) (label ((b * 20) + i))
    done
  done;
  Alcotest.(check bool) "distinct blobs distinct clusters" true
    (label 0 <> label 20 && label 20 <> label 40 && label 0 <> label 40)

let test_kmeans_best_picks_reasonable_k () =
  let result = Kmeans.best ~rng:(rng ()) ~max_k:10 (blobs ()) in
  Alcotest.(check bool) "k close to 3" true (result.Kmeans.k >= 2 && result.Kmeans.k <= 5)

let test_kmeans_k1 () =
  let result = Kmeans.cluster ~rng:(rng ()) ~k:1 (blobs ()) in
  Alcotest.(check bool) "all in cluster 0" true
    (Array.for_all (fun a -> a = 0) result.Kmeans.assignments)

let test_kmeans_k_clamped () =
  let points = [| [| 0.0 |]; [| 1.0 |] |] in
  let result = Kmeans.cluster ~rng:(rng ()) ~k:10 points in
  Alcotest.(check bool) "k clamped to n" true (result.Kmeans.k <= 2)

let test_kmeans_empty_input () =
  Alcotest.check_raises "no points" (Invalid_argument "Kmeans.cluster: no points")
    (fun () -> ignore (Kmeans.cluster ~rng:(rng ()) ~k:2 [||]))

let test_kmeans_inertia_decreases_with_k () =
  let points = blobs () in
  let i1 = (Kmeans.cluster ~rng:(rng ()) ~k:1 points).Kmeans.inertia in
  let i3 = (Kmeans.cluster ~rng:(rng ()) ~k:3 points).Kmeans.inertia in
  Alcotest.(check bool) "more clusters, less inertia" true (i3 < i1)

let prop_assignments_nearest =
  QCheck.Test.make ~name:"every point assigned to nearest centroid" ~count:50
    QCheck.(list_of_size (QCheck.Gen.int_range 4 40) (pair (float_bound_exclusive 100.0) (float_bound_exclusive 100.0)))
    (fun pts ->
      let points = Array.of_list (List.map (fun (a, b) -> [| a; b |]) pts) in
      let r = Kmeans.cluster ~rng:(rng ()) ~k:3 points in
      Array.for_all
        (fun i ->
          let d c = Kmeans.sq_dist points.(i) r.Kmeans.centroids.(c) in
          let assigned = d r.Kmeans.assignments.(i) in
          List.for_all (fun c -> assigned <= d c +. 1e-9)
            (List.init r.Kmeans.k Fun.id))
        (Array.init (Array.length points) Fun.id))

(* --- pruned assign vs naive Lloyd's ---------------------------------------- *)

let random_points rng n dim =
  Array.init n (fun _ ->
      Array.init dim (fun _ -> Elfie_util.Rng.float rng *. 10.0))

let check_results_equal msg (a : Kmeans.result) (b : Kmeans.result) =
  Alcotest.(check int) (msg ^ ": k") a.Kmeans.k b.Kmeans.k;
  Alcotest.(check bool)
    (msg ^ ": assignments")
    true
    (a.Kmeans.assignments = b.Kmeans.assignments);
  Alcotest.(check bool)
    (msg ^ ": centroids")
    true
    (a.Kmeans.centroids = b.Kmeans.centroids);
  Alcotest.(check (float 0.0)) (msg ^ ": inertia") a.Kmeans.inertia b.Kmeans.inertia

let test_pruned_equals_naive_random () =
  let r = Elfie_util.Rng.create 5L in
  List.iter
    (fun (n, dim, k) ->
      let points = random_points r n dim in
      let a = Kmeans.cluster ~rng:(Elfie_util.Rng.create 11L) ~k points in
      let b = Kmeans_ref.cluster_naive ~rng:(Elfie_util.Rng.create 11L) ~k points in
      check_results_equal (Printf.sprintf "n=%d dim=%d k=%d" n dim k) a b)
    [ (40, 2, 3); (100, 15, 8); (7, 3, 7); (64, 1, 5) ]

let test_pruned_equals_naive_duplicates () =
  (* Exact-tie adversary: duplicate points give coincident centroids and
     exact float ties, where only a strict prune condition keeps the
     pruned assign on the naive lowest-index tie-break. *)
  let dup =
    Array.concat
      [
        Array.make 20 [| 0.0; 0.0 |];
        Array.make 20 [| 4.0; 0.0 |];
        Array.make 20 [| 0.0; 4.0 |];
      ]
  in
  List.iter
    (fun k ->
      let a = Kmeans.cluster ~rng:(Elfie_util.Rng.create 17L) ~k dup in
      let b = Kmeans_ref.cluster_naive ~rng:(Elfie_util.Rng.create 17L) ~k dup in
      check_results_equal (Printf.sprintf "duplicates k=%d" k) a b)
    [ 2; 3; 5; 7 ]

let test_pruned_equals_naive_empty_clusters () =
  (* More clusters than distinct values: every iteration leaves clusters
     empty, exercising the dedicated reseed stream on both variants. *)
  let points =
    Array.init 12 (fun i -> if i mod 2 = 0 then [| 1.0 |] else [| 9.0 |])
  in
  let a = Kmeans.cluster ~rng:(Elfie_util.Rng.create 23L) ~k:10 points in
  let b = Kmeans_ref.cluster_naive ~rng:(Elfie_util.Rng.create 23L) ~k:10 points in
  check_results_equal "empty clusters k=10" a b;
  (* Deterministic: same seed, same result. *)
  let a' = Kmeans.cluster ~rng:(Elfie_util.Rng.create 23L) ~k:10 points in
  check_results_equal "reseed deterministic" a a'

let prop_pruned_equals_naive =
  QCheck.Test.make ~name:"pruned k-means = naive Lloyd's" ~count:50
    QCheck.(
      pair (int_range 1 8)
        (list_of_size (Gen.int_range 4 40)
           (pair (float_bound_exclusive 50.0) (float_bound_exclusive 50.0))))
    (fun (k, pts) ->
      let points = Array.of_list (List.map (fun (a, b) -> [| a; b |]) pts) in
      let a = Kmeans.cluster ~rng:(Elfie_util.Rng.create 3L) ~k points in
      let b = Kmeans_ref.cluster_naive ~rng:(Elfie_util.Rng.create 3L) ~k points in
      a.Kmeans.assignments = b.Kmeans.assignments
      && a.Kmeans.centroids = b.Kmeans.centroids
      && a.Kmeans.inertia = b.Kmeans.inertia)

let test_best_jobs_invariant () =
  let points = random_points (Elfie_util.Rng.create 9L) 80 4 in
  let run jobs =
    Kmeans.best ~jobs ~rng:(Elfie_util.Rng.create 31L) ~max_k:20 points
  in
  check_results_equal "best at jobs 1 vs 4" (run 1) (run 4)

(* --- block-driven BBV vs the per-instruction oracle ------------------------ *)

let check_profiles_equal (a : Elfie_pin.Bbv.profile) (b : Elfie_pin.Bbv.profile)
    =
  Alcotest.check Tutil.i64 "total instructions" a.Elfie_pin.Bbv.total_instructions
    b.Elfie_pin.Bbv.total_instructions;
  Alcotest.(check int)
    "slice count"
    (List.length a.Elfie_pin.Bbv.slices)
    (List.length b.Elfie_pin.Bbv.slices);
  List.iter2
    (fun (x : Elfie_pin.Bbv.slice) (y : Elfie_pin.Bbv.slice) ->
      Alcotest.(check int) "slice index" x.Elfie_pin.Bbv.index y.Elfie_pin.Bbv.index;
      Alcotest.check Tutil.i64 "slice length" x.Elfie_pin.Bbv.instructions
        y.Elfie_pin.Bbv.instructions;
      Alcotest.(check bool)
        (Printf.sprintf "slice %d vectors identical" x.Elfie_pin.Bbv.index)
        true
        (x.Elfie_pin.Bbv.vector = y.Elfie_pin.Bbv.vector))
    a.Elfie_pin.Bbv.slices b.Elfie_pin.Bbv.slices

let check_equivalent ?max_ins spec ~slice_size =
  let p_block = Elfie_pin.Bbv.profile ?max_ins spec ~slice_size in
  let p_ins = Bbv_ref.profile_per_ins ?max_ins spec ~slice_size in
  check_profiles_equal p_block p_ins;
  Alcotest.(check bool) "profile nonempty" true (p_block.Elfie_pin.Bbv.slices <> [])

let image_of_builder ?(writable_text = false) b =
  let open Elfie_isa in
  let base = 0x40_0000L in
  let prog = Builder.assemble b ~base in
  let code =
    Elfie_elf.Image.section ~executable:true ~writable:writable_text
      ~name:".text" ~addr:base prog.Builder.code
  in
  { Elfie_elf.Image.exec = true; entry = base; sections = [ code ]; symbols = [] }

(* A long loop-free run of ALU instructions ending in exit: one giant
   straight-line region, so slice boundaries always split blocks. *)
let straight_line_image () =
  let open Elfie_isa in
  let b = Builder.create () in
  for i = 0 to 299 do
    Builder.ins b (Insn.Mov_ri (Reg.RAX, Int64.of_int i));
    Builder.ins b (Insn.Alu_ri (Insn.Add, Reg.RBX, 3L))
  done;
  Builder.ins b (Insn.Mov_ri (Reg.RDI, 0L));
  Builder.ins b
    (Insn.Mov_ri (Reg.RAX, Int64.of_int Elfie_kernel.Abi.sys_exit_group));
  Builder.ins b Insn.Syscall;
  image_of_builder b

(* The hot-loop self-modifying-code shape from the perf-core suite: a
   subroutine's immediate byte is patched mid-run, invalidating its
   translated block, under a call-per-iteration loop. *)
let smc_image () =
  let open Elfie_isa in
  let b = Builder.create () in
  let f = Builder.new_label b in
  let loop = Builder.new_label b in
  let no_patch = Builder.new_label b in
  Builder.ins b (Insn.Mov_ri (Reg.RSI, 0L));
  Builder.ins b (Insn.Mov_ri (Reg.RDI, 400L));
  Builder.bind b loop;
  Builder.call b f;
  Builder.ins b (Insn.Alu_rr (Insn.Add, Reg.RSI, Reg.RBX));
  Builder.ins b (Insn.Alu_ri (Insn.Cmp, Reg.RDI, 200L));
  Builder.jcc b Insn.Ne no_patch;
  Builder.ins b (Insn.Mov_ri (Reg.RCX, 2L));
  Builder.mov_label b Reg.RDX f;
  Builder.ins b
    (Insn.Store
       ( Insn.W8,
         { Insn.base = Some Reg.RDX; index = None; scale = 1; disp = 2L },
         Reg.RCX ));
  Builder.bind b no_patch;
  Builder.ins b (Insn.Alu_ri (Insn.Sub, Reg.RDI, 1L));
  Builder.jcc b Insn.Ne loop;
  Builder.ins b (Insn.Mov_ri (Reg.RDI, 0L));
  Builder.ins b
    (Insn.Mov_ri (Reg.RAX, Int64.of_int Elfie_kernel.Abi.sys_exit_group));
  Builder.ins b Insn.Syscall;
  Builder.bind b f;
  Builder.ins b (Insn.Mov_ri (Reg.RBX, 1L));
  Builder.ins b Insn.Ret;
  image_of_builder ~writable_text:true b

let test_bbv_equiv_straight_line () =
  check_equivalent (Elfie_pin.Run.spec (straight_line_image ())) ~slice_size:100L

let test_bbv_equiv_branchy () =
  check_equivalent (Tutil.tiny_run_spec "bbveq") ~slice_size:7_919L

let test_bbv_equiv_threads () =
  check_equivalent
    (Tutil.tiny_run_spec ~threads:3 "bbveqmt")
    ~slice_size:5_000L ~max_ins:400_000L

let test_bbv_equiv_smc () =
  check_equivalent (Elfie_pin.Run.spec (smc_image ())) ~slice_size:123L

(* The split arithmetic on synthetic observer calls: slice boundaries
   inside a run, runs spanning several slices, interrupted blocks
   continuing their head, and thread ids past the initial table size. *)
let test_collector_synthetic () =
  let observe, finish = Elfie_pin.Bbv.collector ~slice_size:10L in
  observe ~tid:0 ~pcs:[| 0x100L; 0x104L |] ~n:2 ~ends_block:true;
  observe ~tid:20 ~pcs:[| 0x200L; 0x204L |] ~n:1 ~ends_block:false;
  (* tid 20 was interrupted mid-block: the next run keeps charging to
     0x200, and the slice fills exactly at its last instruction. *)
  observe ~tid:20 ~pcs:[| 0x204L |] ~n:7 ~ends_block:true;
  (* One run spanning two further slices. *)
  observe ~tid:0 ~pcs:[| 0x300L |] ~n:25 ~ends_block:true;
  let p = finish () in
  Alcotest.check Tutil.i64 "total" 35L p.Elfie_pin.Bbv.total_instructions;
  let vectors =
    List.map (fun (s : Elfie_pin.Bbv.slice) -> Array.to_list s.Elfie_pin.Bbv.vector)
      p.Elfie_pin.Bbv.slices
  in
  Alcotest.(check (list (list (pair int64 int))))
    "slice vectors"
    [
      [ (0x100L, 2); (0x200L, 8) ];
      [ (0x300L, 10) ];
      [ (0x300L, 10) ];
      [ (0x300L, 5) ];
    ]
    vectors

(* A slice size of zero would cut a slice at every instruction, and a
   negative one would never close a slice: both are refused up front. *)
let test_slice_size_positive () =
  List.iter
    (fun slice_size ->
      Alcotest.check_raises "collector"
        (Invalid_argument "Bbv: slice_size must be positive") (fun () ->
          ignore (Elfie_pin.Bbv.collector ~slice_size));
      Alcotest.check_raises "profile"
        (Invalid_argument "Bbv: slice_size must be positive") (fun () ->
          ignore
            (Elfie_pin.Bbv.profile (Tutil.tiny_run_spec "bbvzero") ~slice_size)))
    [ 0L; -5L ]

(* The default profile path must ride the hook-free translated-block
   core: drive the collector manually through the block observer (no
   pintool attached), check translation happened, and check Bbv.profile
   reproduces the same profile. *)
let test_profile_hook_free () =
  let spec = Tutil.tiny_run_spec "bbvhf" in
  let machine, _kernel = Elfie_pin.Run.instantiate spec in
  let observe, finish = Elfie_pin.Bbv.collector ~slice_size:10_000L in
  Elfie_machine.Machine.set_block_observer machine (Some observe);
  Elfie_machine.Machine.run ~max_ins:200_000L machine;
  Alcotest.(check bool) "blocks translated" true
    (Elfie_machine.Machine.translated_blocks machine > 0);
  let p = finish () in
  let q = Elfie_pin.Bbv.profile ~max_ins:200_000L spec ~slice_size:10_000L in
  check_profiles_equal p q

(* --- simpoint over a real profile ----------------------------------------- *)

let profile () =
  Elfie_pin.Bbv.profile (Tutil.tiny_run_spec "sp") ~slice_size:5_000L

let params =
  { Simpoint.default_params with slice_size = 5_000L; warmup = 10_000L; max_k = 10 }

let test_select_weights_sum () =
  let sel = Simpoint.select ~params (profile ()) in
  let sum = List.fold_left (fun a r -> a +. r.Simpoint.weight) 0.0 sel.Simpoint.regions in
  Alcotest.(check (float 1e-9)) "weights sum to 1" 1.0 sum

let test_select_finds_phases () =
  let sel = Simpoint.select ~params (profile ()) in
  (* The tiny benchmark alternates two kernels: at least 2 clusters. *)
  Alcotest.(check bool) "k >= 2" true (sel.Simpoint.k >= 2)

let test_regions_within_program () =
  let sel = Simpoint.select ~params (profile ()) in
  List.iter
    (fun r ->
      Alcotest.(check bool) "start >= 0" true (r.Simpoint.start >= 0L);
      Alcotest.(check bool) "fits in program" true
        (Int64.add r.Simpoint.start r.Simpoint.length
        <= Int64.add sel.Simpoint.total_instructions params.Simpoint.slice_size))
    sel.Simpoint.regions

let test_alternates_ranked () =
  let sel = Simpoint.select ~params (profile ()) in
  Array.iter
    (fun alts ->
      List.iteri
        (fun i r -> Alcotest.(check int) "rank order" i r.Simpoint.rank)
        alts)
    sel.Simpoint.alternates

let test_warmup_clipped_at_start () =
  let sel = Simpoint.select ~params (profile ()) in
  List.iter
    (fun r ->
      Alcotest.(check bool) "warmup never exceeds configured" true
        (r.Simpoint.warmup_actual <= params.Simpoint.warmup);
      (* start + warmup lands exactly on the slice boundary *)
      Alcotest.check Tutil.i64 "slice boundary"
        (Int64.mul (Int64.of_int r.Simpoint.slice_index) params.Simpoint.slice_size)
        (Int64.add r.Simpoint.start r.Simpoint.warmup_actual))
    sel.Simpoint.regions

let test_full_warmup_preferred () =
  let sel = Simpoint.select ~params (profile ()) in
  (* If a cluster has any member past the warmup horizon, its rank-0
     representative must have full warmup. *)
  let warmup_slices = Int64.to_int (Int64.div params.Simpoint.warmup params.Simpoint.slice_size) in
  Array.iter
    (fun alts ->
      match alts with
      | [] -> ()
      | rep :: _ ->
          let has_late =
            List.exists (fun r -> r.Simpoint.slice_index >= warmup_slices) alts
          in
          if has_late then
            Alcotest.(check bool) "rep has full warmup" true
              (rep.Simpoint.slice_index >= warmup_slices))
    sel.Simpoint.alternates

let test_project_normalised_and_deterministic () =
  let p = profile () in
  let s = List.hd p.Elfie_pin.Bbv.slices in
  let v1 = Simpoint_ref.project ~dims:15 s and v2 = Simpoint_ref.project ~dims:15 s in
  Alcotest.(check bool) "deterministic" true (v1 = v2);
  Alcotest.(check int) "dims" 15 (Array.length v1);
  (* Normalised by slice length: components bounded by 1 in magnitude. *)
  Array.iter
    (fun x -> Alcotest.(check bool) "bounded" true (Float.abs x <= 1.0 +. 1e-9))
    v1

let test_predict_weighted_sum () =
  let sel = Simpoint.select ~params (profile ()) in
  let f = Alcotest.(option (float 1e-9)) in
  Alcotest.check f "constant metric" (Some 1.0)
    (Simpoint.predict
       (List.map (fun r -> (r.Simpoint.weight, 1.0)) sel.Simpoint.regions));
  (* Normalised by the weight that was measured. *)
  Alcotest.check f "partial coverage" (Some (2.5 /. 0.75))
    (Simpoint.predict [ (0.25, 2.0); (0.5, 4.0) ]);
  Alcotest.check f "nothing measured" None (Simpoint.predict []);
  Alcotest.check f "no weight measured" None (Simpoint.predict [ (0.0, 3.0) ])

let test_project_profile_matches_project () =
  let p = profile () in
  let shared = Simpoint.project_profile ~dims:15 p in
  let each =
    Array.of_list (List.map (Simpoint_ref.project ~dims:15) p.Elfie_pin.Bbv.slices)
  in
  Alcotest.(check bool) "shared sign rows bit-identical" true (shared = each)

let test_select_jobs_invariant () =
  let p = profile () in
  let a = Simpoint.select ~jobs:1 ~params p in
  let b = Simpoint.select ~jobs:4 ~params p in
  Alcotest.(check int) "same k" a.Simpoint.k b.Simpoint.k;
  Alcotest.(check bool) "same regions" true
    (a.Simpoint.regions = b.Simpoint.regions)

let suite =
  [
    Alcotest.test_case "kmeans recovers blobs" `Quick test_kmeans_recovers_blobs;
    Alcotest.test_case "kmeans best picks k" `Quick test_kmeans_best_picks_reasonable_k;
    Alcotest.test_case "kmeans k=1" `Quick test_kmeans_k1;
    Alcotest.test_case "kmeans k clamped" `Quick test_kmeans_k_clamped;
    Alcotest.test_case "kmeans empty input" `Quick test_kmeans_empty_input;
    Alcotest.test_case "inertia decreases with k" `Quick
      test_kmeans_inertia_decreases_with_k;
    QCheck_alcotest.to_alcotest prop_assignments_nearest;
    Alcotest.test_case "pruned = naive (random)" `Quick
      test_pruned_equals_naive_random;
    Alcotest.test_case "pruned = naive (duplicates)" `Quick
      test_pruned_equals_naive_duplicates;
    Alcotest.test_case "pruned = naive (empty clusters)" `Quick
      test_pruned_equals_naive_empty_clusters;
    QCheck_alcotest.to_alcotest prop_pruned_equals_naive;
    Alcotest.test_case "best jobs-invariant" `Quick test_best_jobs_invariant;
    Alcotest.test_case "bbv block = per-ins (straight-line)" `Quick
      test_bbv_equiv_straight_line;
    Alcotest.test_case "bbv block = per-ins (branchy)" `Quick
      test_bbv_equiv_branchy;
    Alcotest.test_case "bbv block = per-ins (threads)" `Quick
      test_bbv_equiv_threads;
    Alcotest.test_case "bbv block = per-ins (smc)" `Quick test_bbv_equiv_smc;
    Alcotest.test_case "collector slice splitting" `Quick
      test_collector_synthetic;
    Alcotest.test_case "slice size must be positive" `Quick
      test_slice_size_positive;
    Alcotest.test_case "profile is hook-free" `Quick test_profile_hook_free;
    Alcotest.test_case "weights sum to 1" `Quick test_select_weights_sum;
    Alcotest.test_case "finds phases" `Quick test_select_finds_phases;
    Alcotest.test_case "regions within program" `Quick test_regions_within_program;
    Alcotest.test_case "alternates ranked" `Quick test_alternates_ranked;
    Alcotest.test_case "warmup clipped at start" `Quick test_warmup_clipped_at_start;
    Alcotest.test_case "full-warmup preferred" `Quick test_full_warmup_preferred;
    Alcotest.test_case "projection" `Quick test_project_normalised_and_deterministic;
    Alcotest.test_case "predict weighted sum" `Quick test_predict_weighted_sum;
    Alcotest.test_case "project_profile = project" `Quick
      test_project_profile_matches_project;
    Alcotest.test_case "select jobs-invariant" `Quick test_select_jobs_invariant;
  ]

(* Tests for the three simulator substrates: Vsniper, Vcoresim, Vgem5. *)

module Sniper = Elfie_sniper.Sniper
module Coresim = Elfie_coresim.Coresim
module Gem5 = Elfie_gem5.Gem5
module Pinball2elf = Elfie_core.Pinball2elf

let elfie_with_sysstate ?(threads = 1) ?marker name =
  let pb = Tutil.tiny_pinball ~file_io:true ~threads name in
  let ss = Elfie_pin.Sysstate.analyze pb in
  let options =
    { Pinball2elf.default_options with
      sysstate = Some ss;
      marker = Some (Option.value ~default:(Pinball2elf.Ssc 1L) marker) }
  in
  (pb, Pinball2elf.convert ~options pb, fun fs -> Elfie_pin.Sysstate.install ss fs ~workdir:"/work")

(* --- sniper ----------------------------------------------------------------- *)

let test_sniper_elfie_counts_region_only () =
  let pb, image, fs_init = elfie_with_sysstate "sn1" in
  let r =
    Sniper.simulate_elfie ~fs_init ~cwd:"/work" (Sniper.gainestown ~cores:1) image
  in
  (* The model arms at the ROI marker, so it must count the region, not
     the (much larger) startup stack-copy code. *)
  let region = Elfie_pinball.Pinball.total_icount pb in
  Alcotest.(check bool) "close to region icount" true
    (Int64.sub r.Sniper.instructions region |> Int64.abs |> fun d -> d < 100L);
  Alcotest.(check bool) "ipc sane" true (r.Sniper.ipc > 0.05 && r.Sniper.ipc < 8.0)

let test_sniper_pinball_matches_recording () =
  let pb = Tutil.tiny_pinball "sn2" in
  let r = Sniper.simulate_pinball (Sniper.gainestown ~cores:1) pb in
  Alcotest.check Tutil.i64 "constrained icount exact"
    (Elfie_pinball.Pinball.total_icount pb)
    r.Sniper.instructions

let test_sniper_end_condition () =
  let pb, image, fs_init = elfie_with_sysstate "sn3" in
  ignore pb;
  (* Stop after the marker instruction itself has run once. *)
  let r =
    Sniper.simulate_elfie ~fs_init ~cwd:"/work"
      ~end_condition:{ Sniper.pc = 0L; count = max_int }
      (Sniper.gainestown ~cores:1) image
  in
  Alcotest.(check bool) "no ec match still ends via counters" false
    r.Sniper.end_condition_met

let test_sniper_mt_uses_cores () =
  let _, image, fs_init = elfie_with_sysstate ~threads:4 "sn4" in
  let r =
    Sniper.simulate_elfie ~fs_init ~cwd:"/work" ~max_ins:5_000_000L
      (Sniper.gainestown ~cores:4) image
  in
  let busy =
    Array.length (Array.of_seq (Seq.filter (fun c -> c > 0L) (Array.to_seq r.Sniper.per_core_cycles)))
  in
  Alcotest.(check bool) "several cores busy" true (busy >= 3)

(* --- coresim ---------------------------------------------------------------- *)

let test_coresim_user_vs_full_system () =
  let _, image, fs_init = elfie_with_sysstate ~marker:(Pinball2elf.Simics 4) "cs1" in
  let u = Coresim.simulate ~mode:Coresim.User_level ~fs_init ~cwd:"/work" Coresim.skylake image in
  let f = Coresim.simulate ~mode:Coresim.Full_system ~fs_init ~cwd:"/work" Coresim.skylake image in
  Alcotest.check Tutil.i64 "ring3 equal" u.Coresim.user_instructions
    f.Coresim.user_instructions;
  Alcotest.check Tutil.i64 "user mode has no ring0" 0L u.Coresim.kernel_instructions;
  Alcotest.(check bool) "full system adds ring0" true
    (f.Coresim.kernel_instructions > 0L);
  Alcotest.(check bool) "full system slower" true
    (f.Coresim.runtime_cycles > u.Coresim.runtime_cycles);
  Alcotest.(check bool) "full system larger footprint" true
    (f.Coresim.data_footprint_bytes > u.Coresim.data_footprint_bytes);
  Alcotest.(check bool) "full system more TLB misses" true
    (f.Coresim.dtlb_misses > u.Coresim.dtlb_misses)

let test_coresim_measure_window () =
  let _, image, fs_init = elfie_with_sysstate "cs2" in
  let all = Coresim.simulate ~fs_init ~cwd:"/work" Coresim.skylake image in
  let windowed =
    Coresim.simulate ~measure_after:10_000L ~fs_init ~cwd:"/work" Coresim.skylake image
  in
  Alcotest.(check bool) "window changes cpi" true (all.Coresim.cpi <> windowed.Coresim.cpi)

(* The data footprint is the set of distinct lines CoreSim looks up in
   its LLC; full-system mode adds the kernel's lines. Pinned values for
   a fixed program, so a change to what counts as a footprint line
   shows up here. *)
let test_coresim_data_footprint_pinned () =
  let _, image, fs_init = elfie_with_sysstate ~marker:(Pinball2elf.Simics 4) "cs3" in
  let run mode = Coresim.simulate ~mode ~fs_init ~cwd:"/work" Coresim.skylake image in
  Alcotest.check Tutil.i64 "user-level footprint" 32832L
    (run Coresim.User_level).Coresim.data_footprint_bytes;
  Alcotest.check Tutil.i64 "full-system footprint" 63808L
    (run Coresim.Full_system).Coresim.data_footprint_bytes

(* --- gem5 ------------------------------------------------------------------- *)

let test_gem5_haswell_beats_nehalem () =
  (* A memory-heavy workload benefits from the bigger back end. *)
  let spec =
    Elfie_workloads.Programs.spec
      ~phases:[ { kernel = Elfie_workloads.Kernels.Stream; reps = 4000 } ]
      ~outer_reps:6 ~ws_bytes:262144 "gem5mem"
  in
  let rs = Elfie_workloads.Programs.run_spec spec in
  let r = Elfie_pin.Logger.capture rs ~name:"g5" { Elfie_pin.Logger.start = 30_000L; length = 40_000L } in
  let options =
    { Pinball2elf.default_options with marker = Some (Pinball2elf.Ssc 2L) }
  in
  let image = Pinball2elf.convert ~options r.Elfie_pin.Logger.pinball in
  let n = Gem5.simulate_se Gem5.nehalem image in
  let h = Gem5.simulate_se Gem5.haswell image in
  Alcotest.check Tutil.i64 "same instructions" n.Gem5.instructions h.Gem5.instructions;
  Alcotest.(check bool) "haswell faster" true (h.Gem5.ipc > n.Gem5.ipc)

let test_gem5_counts_from_marker () =
  let pb, image, fs_init = elfie_with_sysstate "g52" in
  let r = Gem5.simulate_se ~fs_init ~cwd:"/work" Gem5.nehalem image in
  let region = Elfie_pinball.Pinball.total_icount pb in
  Alcotest.(check bool) "counts region only" true
    (Int64.abs (Int64.sub r.Gem5.instructions region) < 100L)

let test_simulators_deterministic () =
  (* Every simulator substrate is a pure function of its inputs: two
     identical invocations agree exactly (required for reproducible
     experiment tables). *)
  let pb, image, fs_init = elfie_with_sysstate "det" in
  let s1 = Sniper.simulate_pinball (Sniper.gainestown ~cores:1) pb in
  let s2 = Sniper.simulate_pinball (Sniper.gainestown ~cores:1) pb in
  Alcotest.check Tutil.i64 "sniper cycles" s1.Sniper.runtime_cycles s2.Sniper.runtime_cycles;
  let c1 = Coresim.simulate ~fs_init ~cwd:"/work" Coresim.skylake image in
  let c2 = Coresim.simulate ~fs_init ~cwd:"/work" Coresim.skylake image in
  Alcotest.check Tutil.i64 "coresim cycles" c1.Coresim.runtime_cycles c2.Coresim.runtime_cycles;
  let g1 = Gem5.simulate_se ~fs_init ~cwd:"/work" Gem5.nehalem image in
  let g2 = Gem5.simulate_se ~fs_init ~cwd:"/work" Gem5.nehalem image in
  Alcotest.check Tutil.i64 "gem5 cycles" g1.Gem5.cycles g2.Gem5.cycles

let test_sniper_end_condition_stops_early () =
  let pb, image, fs_init = elfie_with_sysstate "ecstop" in
  (* End at the very first app-code hit: pick the checkpointed RIP. *)
  let pc = pb.Elfie_pinball.Pinball.contexts.(0).Elfie_machine.Context.rip in
  let r =
    Sniper.simulate_elfie ~end_condition:{ Sniper.pc; count = 1 } ~fs_init
      ~cwd:"/work" (Sniper.gainestown ~cores:1) image
  in
  Alcotest.(check bool) "end condition met" true r.Sniper.end_condition_met;
  Alcotest.(check bool) "stopped long before region end" true
    (r.Sniper.instructions < Int64.div (Elfie_pinball.Pinball.total_icount pb) 2L)

(* --- shared branch predictor ----------------------------------------------- *)

(* The bimodal predictor Sniper, CoreSim and gem5 each used to keep
   privately, kept here as the reference for [Timing.Predictor]. *)
let prop_predictor_matches_reference =
  let module Predictor = Elfie_machine.Timing.Predictor in
  (* Mostly pcs that share a few counters (arbitrary high bits over
     eight slots), so the saturating update is exercised; some random. *)
  let pc =
    QCheck.Gen.(
      frequency
        [
          (1, ui64);
          ( 3,
            map2
              (fun hi slot -> Int64.(logor (shift_left hi 13) (of_int (2 * slot))))
              ui64 (int_bound 7) );
        ])
  in
  QCheck.Test.make ~name:"Timing.Predictor matches the simulators' former predictor"
    ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 1 400) (pair pc bool)))
    (fun stream ->
      let p = Predictor.create () in
      let table = Bytes.make 4096 '\002' in
      List.for_all
        (fun (pc, taken) ->
          let idx =
            abs (Int64.to_int (Int64.rem (Int64.shift_right_logical pc 1) 4096L))
          in
          let c = Char.code (Bytes.get table idx) in
          Bytes.set table idx
            (Char.chr (if taken then min 3 (c + 1) else max 0 (c - 1)));
          Predictor.mispredicted p ~pc ~taken = ((c >= 2) <> taken))
        stream)

(* --- pinned region results ------------------------------------------------ *)

(* One region ELFie's complete CoreSim (user-level and full-system) and
   gem5 result records, pinned: where and how the front-ends start
   timing at the ROI marker must not move a single counter. *)
let render_coresim (r : Coresim.result) =
  Printf.sprintf
    "user=%Ld kernel=%Ld cycles=%Ld cpi=%h footprint=%Ld dtlb=%Ld llc=%Ld \
     syscalls=%Ld completed=%b"
    r.Coresim.user_instructions r.Coresim.kernel_instructions r.Coresim.runtime_cycles
    r.Coresim.cpi r.Coresim.data_footprint_bytes r.Coresim.dtlb_misses
    r.Coresim.llc_misses r.Coresim.syscalls r.Coresim.completed

let render_gem5 (r : Gem5.result) =
  Printf.sprintf "instructions=%Ld cycles=%Ld ipc=%h l2=%Ld completed=%b"
    r.Gem5.instructions r.Gem5.cycles r.Gem5.ipc r.Gem5.l2_misses r.Gem5.completed

let test_region_results_pinned () =
  let _, image, fs_init = elfie_with_sysstate "pinned" in
  let coresim mode =
    render_coresim (Coresim.simulate ~mode ~fs_init ~cwd:"/work" Coresim.skylake image)
  in
  let gem5 = render_gem5 (Gem5.simulate_se ~fs_init ~cwd:"/work" Gem5.nehalem image) in
  List.iter
    (fun (name, expected, got) -> Alcotest.(check string) name expected got)
    [ ( "coresim user-level",
        "user=30002 kernel=0 cycles=111957 cpi=0x1.dda63380f6d5fp+1 footprint=32832 \
         dtlb=9 llc=513 syscalls=2 completed=true",
        coresim Coresim.User_level );
      ( "coresim full-system",
        "user=30002 kernel=2216 cycles=139881 cpi=0x1.2a644fa971923p+2 \
         footprint=63808 dtlb=23 llc=997 syscalls=2 completed=true",
        coresim Coresim.Full_system );
      ( "gem5 nehalem",
        "instructions=30002 cycles=85286 ipc=0x1.6839d61f9f6bp-2 l2=513 completed=true",
        gem5 ) ]

let suite =
  [
    QCheck_alcotest.to_alcotest prop_predictor_matches_reference;
    Alcotest.test_case "simulators deterministic" `Quick test_simulators_deterministic;
    Alcotest.test_case "sniper end condition stops" `Quick
      test_sniper_end_condition_stops_early;
    Alcotest.test_case "sniper counts region only" `Quick
      test_sniper_elfie_counts_region_only;
    Alcotest.test_case "sniper pinball matches recording" `Quick
      test_sniper_pinball_matches_recording;
    Alcotest.test_case "sniper end condition flag" `Quick test_sniper_end_condition;
    Alcotest.test_case "sniper MT uses cores" `Quick test_sniper_mt_uses_cores;
    Alcotest.test_case "coresim user vs full system" `Quick
      test_coresim_user_vs_full_system;
    Alcotest.test_case "coresim measure window" `Quick test_coresim_measure_window;
    Alcotest.test_case "coresim data footprint pinned" `Quick
      test_coresim_data_footprint_pinned;
    Alcotest.test_case "gem5 haswell beats nehalem" `Quick
      test_gem5_haswell_beats_nehalem;
    Alcotest.test_case "gem5 counts from marker" `Quick test_gem5_counts_from_marker;
    Alcotest.test_case "region results pinned (CoreSim, gem5)" `Quick
      test_region_results_pinned;
  ]

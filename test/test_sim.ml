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

(* An instruction cap past what a counter can hold saturates: the run
   ends as under the default cap. *)
let test_sniper_max_ins_saturates () =
  let _, image, fs_init = elfie_with_sysstate "sn5" in
  let run ?max_ins () =
    Sniper.simulate_elfie ?max_ins ~fs_init ~cwd:"/work" (Sniper.gainestown ~cores:1) image
  in
  let r = run () and wide = run ~max_ins:Int64.max_int () in
  Alcotest.(check bool) "instructions simulated" true (Int64.compare r.Sniper.instructions 0L > 0);
  Alcotest.check Tutil.i64 "same instructions" r.Sniper.instructions wide.Sniper.instructions;
  Alcotest.check Tutil.i64 "same cycles" r.Sniper.runtime_cycles wide.Sniper.runtime_cycles;
  Alcotest.(check bool) "completed" true wide.Sniper.completed

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
  let pc = (Elfie_machine.Context.rip pb.Elfie_pinball.Pinball.contexts.(0)) in
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

(* A 4-thread capture shaped like the mt-sim workload's: spin barriers,
   file I/O and time calls, logged under fine time-slicing; 120k
   instructions, so a full-system run crosses several timer intervals.
   Sniper runs the pinball and an ELFie ended by the (PC, count)
   criterion; CoreSim and gem5 run a counter-armed ELFie. *)
let mt_fixture =
  lazy
    (let rs = Tutil.tiny_run_spec ~file_io:true ~time_calls:true ~threads:4 "mt4" in
     let { Elfie_pin.Logger.pinball; _ } =
       Elfie_pin.Logger.capture
         ~scheduler:
           (Elfie_machine.Machine.Free
              { seed = rs.Elfie_pin.Run.seed; quantum_min = 10; quantum_max = 30 })
         rs ~name:"mt4"
         { Elfie_pin.Logger.start = 20_000L; length = 120_000L }
     in
     let ss = Elfie_pin.Sysstate.analyze pinball in
     let convert options =
       Pinball2elf.convert ~options:{ options with Pinball2elf.sysstate = Some ss }
         pinball
     in
     let exclude =
       match
         ( Elfie_elf.Image.find_symbol rs.Elfie_pin.Run.image "barrier_begin",
           Elfie_elf.Image.find_symbol rs.Elfie_pin.Run.image "barrier_end" )
       with
       | Some lo, Some hi -> Some (lo, hi)
       | _ -> None
     in
     ( pinball,
       exclude,
       convert
         { Pinball2elf.default_options with
           marker = Some Pinball2elf.Sniper;
           arm_counters = false },
       convert { Pinball2elf.default_options with marker = Some (Pinball2elf.Ssc 0x4649L) },
       fun fs -> Elfie_pin.Sysstate.install ss fs ~workdir:"/work" ))

let render_sniper (r : Sniper.result) =
  let ints a = String.concat "," (Array.to_list (Array.map Int64.to_string a)) in
  Printf.sprintf
    "instructions=%Ld per_thread=%s cycles=%Ld ipc=%h per_core=%s ec_met=%b \
     completed=%b"
    r.Sniper.instructions
    (ints r.Sniper.per_thread_instructions)
    r.Sniper.runtime_cycles r.Sniper.ipc
    (ints r.Sniper.per_core_cycles)
    r.Sniper.end_condition_met r.Sniper.completed

let check_pinned cases =
  List.iter
    (fun (name, expected, got) -> Alcotest.(check string) name expected got)
    cases

let test_sniper_mt_pinned () =
  let pinball, exclude, sniper_elfie, _, fs_init = Lazy.force mt_fixture in
  let cfg = Sniper.gainestown ~cores:4 in
  let ec = Sniper.profile_end_condition ?exclude pinball in
  let elfie ?end_condition () =
    render_sniper
      (Sniper.simulate_elfie ?end_condition ~fs_init ~cwd:"/work"
         ~max_ins:2_400_000L cfg sniper_elfie)
  in
  check_pinned
    [ ( "end condition",
        "pc=0x40020c count=5838",
        Printf.sprintf "pc=0x%Lx count=%d" ec.Sniper.pc ec.Sniper.count );
      ( "pinball",
        "instructions=120000 per_thread=29262,30704,29898,30136 \
         cycles=92712 ipc=0x1.4b5943ed2decdp+0 \
         per_core=92620,91820,89461,92712 ec_met=false completed=true", render_sniper (Sniper.simulate_pinball cfg pinball));
      ( "pinball with end condition",
        "instructions=120000 per_thread=29262,30704,29898,30136 \
         cycles=92712 ipc=0x1.4b5943ed2decdp+0 \
         per_core=92620,91820,89461,92712 ec_met=true completed=true",
        render_sniper (Sniper.simulate_pinball ~end_condition:ec cfg pinball) );
      ( "elfie",
        "instructions=552831 per_thread=129297,139162,150066,134306 \
         cycles=205268 ipc=0x1.58bb4ac1119d6p+1 \
         per_core=205268,204853,205163,204853 ec_met=false \
         completed=true", elfie ());
      ( "elfie with end condition",
        "instructions=120137 per_thread=30222,29283,31016,29616 \
         cycles=92034 ipc=0x1.4e2bb71f61bd4p+0 \
         per_core=92034,92025,92020,92022 ec_met=true completed=true", elfie ~end_condition:ec ()) ]

(* Full-system CoreSim over several timer intervals with syscalls, on
   four threads; gem5 haswell, whose per-instruction cycles are 1/8. *)
let test_mt_coresim_gem5_pinned () =
  let _, _, _, elfie, fs_init = Lazy.force mt_fixture in
  let coresim mode =
    render_coresim
      (Coresim.simulate ~mode ~fs_init ~cwd:"/work" ~max_ins:2_400_000L
         Coresim.skylake elfie)
  in
  check_pinned
    [ ( "coresim full-system",
        "user=120104 kernel=1924 cycles=529754 cpi=0x1.1a4a72d3d18cfp+2 \
         footprint=159424 dtlb=91 llc=2491 syscalls=3 completed=true", coresim Coresim.Full_system);
      ( "coresim user-level",
        "user=120104 kernel=0 cycles=510728 cpi=0x1.102703c4ba466p+2 \
         footprint=131904 dtlb=34 llc=2061 syscalls=3 completed=true", coresim Coresim.User_level);
      ( "gem5 haswell",
        "instructions=120104 cycles=345403 ipc=0x1.641111481dad2p-2 \
         l2=2061 completed=true",
        render_gem5
          (Gem5.simulate_se ~fs_init ~cwd:"/work" ~max_ins:2_400_000L Gem5.haswell
             elfie) ) ]

(* The measured window opening inside a block, and a model running from
   the first instruction (ELFie startup included). *)
let test_coresim_window_pinned () =
  let _, image, fs_init = elfie_with_sysstate "pinned" in
  let run ?mode ?from_marker ?measure_after () =
    render_coresim
      (Coresim.simulate ?mode ?from_marker ?measure_after ~fs_init ~cwd:"/work"
         Coresim.skylake image)
  in
  check_pinned
    [ ( "window at 10003",
        "user=30002 kernel=0 cycles=111957 cpi=0x1.01574310037b5p+0 \
         footprint=32832 dtlb=9 llc=513 syscalls=2 completed=true", run ~measure_after:10_003L ());
      ( "full-system window at 12345",
        "user=30002 kernel=2216 cycles=139881 cpi=0x1.171cc78eae02dp+1 \
         footprint=63808 dtlb=23 llc=997 syscalls=2 completed=true",
        run ~mode:Coresim.Full_system ~measure_after:12_345L () );
      ( "from the first instruction",
        "user=226671 kernel=0 cycles=1558000 cpi=0x1.b7e5bc228bb8bp+2 \
         footprint=557248 dtlb=138 llc=8707 syscalls=8 completed=true", run ~from_marker:false ());
      ( "full-system from the first instruction, window at 77777",
        "user=226671 kernel=9364 cycles=1652076 \
         cpi=0x1.c538e827174c1p+2 footprint=645248 dtlb=171 llc=10082 \
         syscalls=8 completed=true",
        run ~mode:Coresim.Full_system ~from_marker:false ~measure_after:77_777L () );
      ( "gem5 haswell from the first instruction",
        "instructions=226671 cycles=932378 ipc=0x1.f1e4005b69358p-3 \
         l2=8708 completed=true",
        render_gem5
          (Gem5.simulate_se ~from_marker:false ~fs_init ~cwd:"/work" Gem5.haswell
             image) ) ]

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
    Alcotest.test_case "sniper max_ins saturates" `Quick test_sniper_max_ins_saturates;
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
    Alcotest.test_case "pinned: Sniper 4-thread pinball and ELFie runs" `Quick
      test_sniper_mt_pinned;
    Alcotest.test_case "pinned: 4-thread full-system CoreSim, gem5 haswell" `Quick
      test_mt_coresim_gem5_pinned;
    Alcotest.test_case "pinned: CoreSim window inside a block, from the first instruction"
      `Quick test_coresim_window_pinned;
  ]

(* Tests for the Vpin layer: tool multiplexing, the logger, the
   replayer (constrained and injection-less), BBV profiling and the
   sysstate tool. *)

open Elfie_pin

(* The aggregate instruction count at the [occurrence]-th execution
   (1-based) of the SSC marker with [payload], the marker itself not yet
   retired: a marker-delimited region trigger à la PinPlay's
   [-log:start_address], fed straight to [Logger.capture]. [None] if the
   marker never fires that often. *)
let icount_at_marker spec ~payload ~occurrence =
  let machine, _kernel = Run.instantiate spec in
  let hits = ref 0 in
  let at = ref None in
  let tool =
    {
      (Pintool.empty ~name:"marker-trigger") with
      on_marker =
        Some
          (fun _ ins ->
            match ins with
            | Elfie_isa.Insn.Ssc_marker p when p = payload ->
                incr hits;
                if !hits = occurrence then begin
                  at := Some (Elfie_machine.Machine.total_retired machine);
                  Elfie_machine.Machine.request_stop machine
                end
            | _ -> ());
    }
  in
  let detach = Pintool.attach machine [ tool ] in
  Elfie_machine.Machine.run machine;
  detach ();
  !at

(* --- pintool --------------------------------------------------------------- *)

(* A tool with a before-call on every instruction, and its count. *)
let instruction_counter () =
  let count = ref 0L in
  let c =
    {
      Elfie_machine.Machine.no_callouts with
      before = Some (fun _ -> count := Int64.add !count 1L);
    }
  in
  ({ (Pintool.empty ~name:"icount") with instrument = Some (fun _ _ -> c) }, fun () -> !count)

let test_tool_chaining_and_detach () =
  let rs = Tutil.tiny_run_spec "chain" in
  let machine, _ = Run.instantiate rs in
  let t1, c1 = instruction_counter () in
  let t2, c2 = instruction_counter () in
  let detach = Pintool.attach machine [ t1; t2 ] in
  Elfie_machine.Machine.run ~max_ins:1_000L machine;
  Alcotest.check Tutil.i64 "both tools see all" (c1 ()) (c2 ());
  Alcotest.check Tutil.i64 "count" 1_000L (c1 ());
  detach ();
  Elfie_machine.Machine.run ~max_ins:2_000L machine;
  Alcotest.check Tutil.i64 "detached" 1_000L (c1 ())

(* A lone instrumentation routine is installed as it is; call-outs of
   tools attached later fire after the ones already installed, in list
   order; each detach restores exactly the hooks it found. *)
let test_tool_order_and_detach () =
  let machine, _ = Run.instantiate (Tutil.tiny_run_spec "order") in
  let h = Elfie_machine.Machine.hooks machine in
  let log = ref [] in
  let tool name =
    let c =
      {
        Elfie_machine.Machine.no_callouts with
        before = Some (fun _ -> log := (name, `Ins) :: !log);
        branch = Some (fun _ _ -> log := (name, `Branch) :: !log);
      }
    in
    { (Pintool.empty ~name) with instrument = Some (fun _ _ -> c) }
  in
  let a = tool "a" and b = tool "b" and c = tool "c" in
  let same x y =
    match (x, y) with Some f, Some g -> f == g | None, None -> true | _ -> false
  in
  let detach_a = Pintool.attach machine [ a ] in
  Alcotest.(check bool) "lone routine installed as-is" true
    (same h.instrument a.instrument);
  let detach_bc = Pintool.attach machine [ b; c ] in
  Elfie_machine.Machine.run ~max_ins:200L machine;
  let rec triples = function
    | [] -> true
    | ("a", k) :: ("b", k') :: ("c", k'') :: rest ->
        k = k' && k' = k'' && triples rest
    | _ -> false
  in
  let events = List.rev !log in
  Alcotest.(check bool) "branches seen" true (List.mem ("a", `Branch) events);
  Alcotest.(check bool) "every event fires a, b, c in order" true (triples events);
  detach_bc ();
  Alcotest.(check bool) "detach restores the lone tool" true
    (same h.instrument a.instrument);
  detach_a ();
  Alcotest.(check bool) "detach restores no hooks" true
    (h.instrument = None && h.on_marker = None)

(* [Pintool.start_roi]: without a marker the region starts where the
   machine stands; from a marker it starts right after the first one
   retires, with the tools attached there; a program without a marker
   has no region. *)
let test_start_roi () =
  let machine, _ = Run.instantiate (Tutil.tiny_run_spec "roi") in
  Elfie_machine.Machine.run ~max_ins:500L machine;
  let t, c = instruction_counter () in
  Alcotest.(check (option int)) "starts where the machine stands" (Some 500)
    (Pintool.start_roi ~from_marker:false ~max_ins:2_000L machine [ t ]);
  Elfie_machine.Machine.run ~max_ins:2_000L machine;
  Alcotest.check Tutil.i64 "tools attached at once" 1_500L (c ());
  let payload = 0x77L in
  let rs =
    Elfie_workloads.Programs.run_spec
      (Elfie_workloads.Programs.spec
         ~phases:[ { kernel = Elfie_workloads.Kernels.Alu; reps = 800 } ]
         ~outer_reps:2 ~ws_bytes:16384 ~roi_marker:payload "roi")
  in
  let marker =
    match icount_at_marker rs ~payload ~occurrence:1 with
    | Some n -> Int64.to_int n
    | None -> Alcotest.fail "marker never fired"
  in
  let machine, _ = Run.instantiate rs in
  let t, c = instruction_counter () in
  Alcotest.(check (option int)) "starts after the marker" (Some (marker + 1))
    (Pintool.start_roi ~from_marker:true ~max_ins:Int64.max_int machine [ t ]);
  Alcotest.check Tutil.i64 "stops right after the marker"
    (Int64.of_int (marker + 1))
    (Elfie_machine.Machine.total_retired machine);
  Alcotest.check Tutil.i64 "tools see nothing before it" 0L (c ());
  Elfie_machine.Machine.run ~max_ins:(Int64.of_int (marker + 1_001)) machine;
  Alcotest.check Tutil.i64 "tools see the region" 1_000L (c ());
  let machine, _ = Run.instantiate (Tutil.tiny_run_spec "noroi") in
  let t, c = instruction_counter () in
  Alcotest.(check (option int)) "no marker, no region" None
    (Pintool.start_roi ~from_marker:true ~max_ins:10_000L machine [ t ]);
  Alcotest.check Tutil.i64 "tools see nothing" 0L (c ())

(* --- run -------------------------------------------------------------------- *)

let test_native_run_clean () =
  let stats = Run.native (Tutil.tiny_run_spec ~file_io:true "native") in
  Alcotest.(check bool) "clean" true stats.Run.clean;
  Alcotest.(check string) "stdout" "done\n" stats.Run.stdout;
  Alcotest.(check bool) "cpi sane" true (stats.Run.cpi > 0.5 && stats.Run.cpi < 50.0)

let test_native_st_deterministic_retired () =
  let a = Run.native (Tutil.tiny_run_spec ~seed:1L "d1") in
  let b = Run.native (Tutil.tiny_run_spec ~seed:2L "d2") in
  Alcotest.check Tutil.i64 "ST icount independent of seed" a.Run.retired b.Run.retired

(* Run a booted single-thread machine to its end. Returns the thread
   and the cycles it was charged beyond its instructions' per-class
   costs and its ring-0 work: the cache and branch-predictor
   penalties. *)
let run_penalties machine =
  let module Machine = Elfie_machine.Machine in
  let base = ref 0 in
  (Machine.hooks machine).instrument <-
    Some
      (fun _ ins ->
        let c = Elfie_machine.Timing.ins_cost (Elfie_isa.Insn.classify ins) in
        { Machine.no_callouts with before = Some (fun _ -> base := !base + c) });
  Machine.run machine;
  let th = Machine.thread machine 0 in
  (th, th.Machine.cycles - !base - Int64.to_int (Machine.ring0_retired machine))

(* A simulator's front-end machine ([native = false], as CoreSim, gem5
   and Sniper boot theirs) retires the same instructions into the same
   registers as a native one, and is charged no cache or predictor
   penalty, while the native machine is. Both boots a front-end uses
   are checked: an ELF through [Run.instantiate], a pinball through
   [Replayer.materialize]. *)
let test_front_end_machine_charges_no_penalties () =
  let module Machine = Elfie_machine.Machine in
  let check what boot =
    let native, native_pen = run_penalties (boot true) in
    let sim, sim_pen = run_penalties (boot false) in
    Alcotest.(check int) (what ^ ": retired") native.Machine.retired sim.Machine.retired;
    Alcotest.(check bool) (what ^ ": registers") true
      (Elfie_machine.Context.equal native.Machine.ctx sim.Machine.ctx);
    Alcotest.(check int) (what ^ ": front-end penalties") 0 sim_pen;
    Alcotest.(check bool) (what ^ ": native penalties") true (native_pen > 0)
  in
  let rs = Tutil.tiny_run_spec "front-end" in
  check "Run.instantiate" (fun native -> fst (Run.instantiate { rs with Run.native }));
  let pb = Tutil.tiny_pinball "front-end" in
  check "Replayer.materialize" (fun native ->
      let m, _, _ = Replayer.materialize ~native pb in
      m)

(* --- logger ---------------------------------------------------------------- *)

let test_capture_exact_region () =
  let pb = Tutil.tiny_pinball ~start:20_000L ~length:30_000L "exact" in
  Alcotest.check Tutil.i64 "region length" 30_000L
    (Elfie_pinball.Pinball.total_icount pb);
  Alcotest.(check int) "one thread" 1 (Elfie_pinball.Pinball.num_threads pb);
  Alcotest.(check bool) "fat" true pb.Elfie_pinball.Pinball.fat

let test_capture_deterministic () =
  (* Same program, same name (argv lives on the checkpointed stack),
     same seed: the checkpoint is bit-identical. *)
  let a = Tutil.tiny_pinball "cap" and b = Tutil.tiny_pinball "cap" in
  Alcotest.(check bool) "same checkpoint" true (Elfie_pinball.Pinball.equal a b)

let test_fat_vs_lean () =
  let rs = Tutil.tiny_run_spec "fatlean" in
  let region = { Logger.start = 20_000L; length = 5_000L } in
  let fat = (Logger.capture ~fat:true rs ~name:"fat" region).Logger.pinball in
  let lean = (Logger.capture ~fat:false rs ~name:"lean" region).Logger.pinball in
  Alcotest.(check bool) "lean has fewer pages" true
    (List.length lean.Elfie_pinball.Pinball.pages
    < List.length fat.Elfie_pinball.Pinball.pages);
  (* Lean pages are a subset of fat pages, with identical content. *)
  List.iter
    (fun (addr, data) ->
      match List.assoc_opt addr fat.Elfie_pinball.Pinball.pages with
      | Some fat_data -> Alcotest.(check bytes) "page content" fat_data data
      | None -> Alcotest.fail "lean page missing from fat image")
    lean.Elfie_pinball.Pinball.pages

let test_capture_past_end () =
  let rs = Tutil.tiny_run_spec "pastend" in
  match Logger.capture rs ~name:"x" { Logger.start = 100_000_000L; length = 1L } with
  | _ -> Alcotest.fail "expected Unsupported"
  | exception Logger.Unsupported _ -> ()

let test_capture_truncated_region () =
  let rs = Tutil.tiny_run_spec "trunc" in
  let r = Logger.capture rs ~name:"t" { Logger.start = 20_000L; length = 500_000L } in
  Alcotest.(check bool) "did not reach end" false r.Logger.reached_end

let test_capture_many_matches_single () =
  (* Batched multi-region capture must produce the same pinballs as
     independent captures, including for overlapping regions. *)
  let rs = Tutil.tiny_run_spec "many" in
  let r1 = { Logger.start = 20_000L; length = 15_000L } in
  let r2 = { Logger.start = 30_000L; length = 20_000L } (* overlaps r1 *) in
  let batch = Logger.capture_many rs [ ("a", r1); ("b", r2) ] in
  let single name r = (Logger.capture rs ~name r).Logger.pinball in
  List.iter
    (fun (name, r) ->
      let batched = (List.assoc name batch).Logger.pinball in
      Alcotest.(check bool)
        (name ^ " equals single capture")
        true
        (Elfie_pinball.Pinball.equal batched (single name r)))
    [ ("a", r1); ("b", r2) ];
  (* Batched pinballs replay exactly. *)
  List.iter
    (fun (name, result) ->
      let rep = Replayer.replay result.Logger.pinball in
      Alcotest.(check bool) (name ^ " replays") true rep.Replayer.matched_icounts)
    batch

(* Lean mode records each region's touched pages while that region is
   active, whatever else overlaps it. *)
(* The page set a lean capture keeps — every page holding an executed
   instruction's 16-byte fetch window or the first or last byte of a
   data access — pinned for a 4-thread region with file I/O and time
   calls. *)
let test_lean_pages_pinned () =
  let rs = Tutil.tiny_run_spec ~file_io:true ~time_calls:true ~threads:4 "leanpin" in
  let pb =
    (Logger.capture ~fat:false rs ~name:"leanpin"
       { Logger.start = 20_000L; length = 60_000L })
      .Logger.pinball
  in
  Alcotest.(check string) "touched pages"
    "400000 800000 801000 802000 803000 804000 805000 806000 807000 \
     808000 809000 80a000 80b000 80c000 80d000 80e000 80f000 810000 \
     811000 812000 813000 814000 815000 816000 817000 818000 819000 \
     81a000 81b000 81c000 81d000 81e000 81f000"
    (String.concat " "
       (List.map
          (fun (addr, _) -> Printf.sprintf "%Lx" addr)
          pb.Elfie_pinball.Pinball.pages))

(* The lean tracker sees the last byte of every access: a W64 load
   that crosses from one page into the next, and an odd-address W16
   load whose last byte alone lies in the next page, keep both pages
   each ({!Elfie_machine.Cache.key} drops address bit 0, so the last
   byte cannot be derived from the first one's key). *)
let test_lean_pages_access_ends () =
  let b = Elfie_isa.Builder.create () in
  let open Elfie_isa in
  let load w addr =
    Builder.ins b (Insn.Mov_ri (Reg.RBX, addr));
    Builder.ins b
      (Insn.Load (w, Reg.RAX, { base = Some Reg.RBX; index = None; scale = 1; disp = 0L }))
  in
  load W64 0x80_0FFCL;
  load W16 0x80_2FFFL;
  Builder.ins b (Insn.Mov_ri (Reg.RDI, 0L));
  Builder.ins b (Insn.Mov_ri (Reg.RAX, Int64.of_int Elfie_kernel.Abi.sys_exit_group));
  Builder.ins b Insn.Syscall;
  let image = Tutil.image_of ~data_section:(0x80_0000L, 0x4000) b in
  let pb =
    (Logger.capture ~fat:false (Run.spec image) ~name:"ends"
       { Logger.start = 0L; length = 5L })
      .Logger.pinball
  in
  Alcotest.(check string) "touched pages" "400000 800000 801000 802000 803000"
    (String.concat " "
       (List.map
          (fun (addr, _) -> Printf.sprintf "%Lx" addr)
          pb.Elfie_pinball.Pinball.pages))

let test_lean_capture_many_matches_single () =
  let rs = Tutil.tiny_run_spec "leanmany" in
  let r1 = { Logger.start = 20_000L; length = 15_000L } in
  let r2 = { Logger.start = 30_000L; length = 20_000L } (* overlaps r1 *) in
  let batch = Logger.capture_many ~fat:false rs [ ("a", r1); ("b", r2) ] in
  List.iter
    (fun (name, r) ->
      let single = (Logger.capture ~fat:false rs ~name r).Logger.pinball in
      let batched = (List.assoc name batch).Logger.pinball in
      Alcotest.(check bool) (name ^ " is lean") false batched.Elfie_pinball.Pinball.fat;
      Alcotest.(check (list int64))
        (name ^ " pages equal a single lean capture")
        (List.map fst single.Elfie_pinball.Pinball.pages)
        (List.map fst batched.Elfie_pinball.Pinball.pages);
      Alcotest.(check bool)
        (name ^ " equals single lean capture")
        true
        (Elfie_pinball.Pinball.equal batched single))
    [ ("a", r1); ("b", r2) ]

(* A fat capture reads no page tracking, so nothing instruments it and
   the chain tier links superblocks. *)
let test_fat_capture_runs_chained () =
  let built =
    Elfie_obs.Metrics.counter "elfie_core_superblocks_built"
  in
  let before = Elfie_obs.Metrics.value built in
  let r =
    Logger.capture ~fat:true (Tutil.tiny_run_spec "fatchain") ~name:"fc"
      { Logger.start = 20_000L; length = 30_000L }
  in
  Alcotest.(check bool) "region captured" true r.Logger.reached_end;
  Alcotest.(check bool) "superblocks built" true
    (Elfie_obs.Metrics.value built > before)

let test_capture_many_skips_unreachable () =
  let rs = Tutil.tiny_run_spec "manyskip" in
  let batch =
    Logger.capture_many rs
      [ ("ok", { Logger.start = 20_000L; length = 10_000L });
        ("never", { Logger.start = 99_000_000L; length = 10L }) ]
  in
  Alcotest.(check (list string)) "only reachable" [ "ok" ] (List.map fst batch)

let test_marker_delimited_capture () =
  (* A region triggered by the application's own ROI marker starts
     exactly at the marker instruction (PinPlay-style trigger). *)
  let payload = 0x1234L in
  let spec =
    Elfie_workloads.Programs.spec
      ~phases:[ { kernel = Elfie_workloads.Kernels.Alu; reps = 800 } ]
      ~outer_reps:6 ~ws_bytes:16384 ~roi_marker:payload "marked"
  in
  let rs = Elfie_workloads.Programs.run_spec spec in
  let start =
    match icount_at_marker rs ~payload ~occurrence:3 with
    | Some n -> n
    | None -> Alcotest.fail "marker never fired"
  in
  Alcotest.(check bool) "third occurrence is past the second iteration" true
    (start > 16_000L);
  let r = Logger.capture rs ~name:"marked" { Logger.start; length = 8_000L } in
  let image = Elfie_workloads.Programs.image spec in
  let marker_addr = Option.get (Elfie_elf.Image.find_symbol image "outer_loop") in
  Alcotest.check Tutil.i64 "region starts at the marker" marker_addr
    (Elfie_machine.Context.rip r.Logger.pinball.Elfie_pinball.Pinball.contexts.(0));
  (* Never-firing occurrence count. *)
  Alcotest.(check (option Tutil.i64)) "too many occurrences" None
    (icount_at_marker rs ~payload ~occurrence:1000)

(* --- replayer ---------------------------------------------------------------- *)

let test_constrained_replay_matches () =
  let pb = Tutil.tiny_pinball ~file_io:true ~time_calls:true "replay" in
  let r = Replayer.replay pb in
  Alcotest.(check bool) "icounts match" true r.Replayer.matched_icounts;
  Alcotest.(check int) "no divergence" 0 r.Replayer.divergences

let test_injection_provides_file_data () =
  (* The region reads from a pre-opened fd; constrained replay succeeds
     with an EMPTY filesystem because results are injected. *)
  let pb = Tutil.tiny_pinball ~file_io:true "inject" in
  let has_reads =
    Array.exists
      (List.exists (fun e -> e.Elfie_pinball.Pinball.sys_nr = Elfie_kernel.Abi.sys_read))
      pb.Elfie_pinball.Pinball.injections
  in
  Alcotest.(check bool) "region contains reads" true has_reads;
  let r = Replayer.replay pb in
  Alcotest.(check bool) "replay ok without files" true r.Replayer.matched_icounts

let test_injectionless_mimics_elfie () =
  let pb = Tutil.tiny_pinball ~file_io:true "injless" in
  (* Without the file, the re-executed read fails, but execution itself
     proceeds (our workload ignores read results). With the file it
     reaches the recorded icounts. *)
  let with_fs =
    Replayer.replay
      ~mode:
        (Replayer.Injectionless
           { seed = 9L;
             fs_init =
               (fun fs ->
                 Elfie_kernel.Fs.add_file fs ~path:"/input.dat"
                   Elfie_workloads.Programs.input_file_content) })
      pb
  in
  Alcotest.(check bool) "reaches icounts" true with_fs.Replayer.matched_icounts

let test_replay_divergence_detection () =
  (* Tampering with the injection log makes replay observe syscall
     mismatches, which it must count rather than crash on. *)
  let pb = Tutil.tiny_pinball ~file_io:true ~time_calls:true "tamper" in
  let tampered =
    {
      pb with
      Elfie_pinball.Pinball.injections =
        Array.map
          (List.map (fun e -> { e with Elfie_pinball.Pinball.sys_nr = 9999 }))
          pb.Elfie_pinball.Pinball.injections;
    }
  in
  let has_entries = Array.exists (fun l -> l <> []) pb.Elfie_pinball.Pinball.injections in
  Alcotest.(check bool) "pinball has syscalls" true has_entries;
  let r = Replayer.replay tampered in
  Alcotest.(check bool) "divergences counted" true (r.Replayer.divergences > 0)

let test_replay_memory_image_isolated () =
  (* Replaying twice from the same pinball gives identical results: the
     pinball's pages must not be mutated by a replay. *)
  let pb = Tutil.tiny_pinball "iso" in
  let r1 = Replayer.replay pb in
  let r2 = Replayer.replay pb in
  Alcotest.check Tutil.i64 "same retired" r1.Replayer.retired r2.Replayer.retired;
  Alcotest.(check bool) "both match" true
    (r1.Replayer.matched_icounts && r2.Replayer.matched_icounts)

(* --- bbv -------------------------------------------------------------------- *)

let test_bbv_slices () =
  let profile = Bbv.profile (Tutil.tiny_run_spec "bbv") ~slice_size:10_000L in
  Alcotest.(check bool) "several slices" true (List.length profile.Bbv.slices > 5);
  List.iteri
    (fun i s ->
      Alcotest.(check int) "indexed" i s.Bbv.index;
      let sum = Array.fold_left (fun a (_, c) -> a + c) 0 s.Bbv.vector in
      Alcotest.(check int)
        (Printf.sprintf "vector sums to slice %d length" i)
        (Int64.to_int s.Bbv.instructions)
        sum)
    profile.Bbv.slices;
  let total =
    List.fold_left (fun a s -> Int64.add a s.Bbv.instructions) 0L profile.Bbv.slices
  in
  Alcotest.check Tutil.i64 "total" profile.Bbv.total_instructions total

let test_bbv_phases_have_distinct_vectors () =
  let profile = Bbv.profile (Tutil.tiny_run_spec "bbvp") ~slice_size:10_000L in
  let keys s =
    List.sort compare (Array.to_list (Array.map fst s.Bbv.vector))
  in
  let distinct =
    List.sort_uniq compare (List.map keys profile.Bbv.slices)
  in
  Alcotest.(check bool) "more than one block mix" true (List.length distinct > 1)

(* --- sysstate ----------------------------------------------------------------- *)

let test_sysstate_fd_proxy () =
  let pb = Tutil.tiny_pinball ~file_io:true "ssfd" in
  let ss = Sysstate.analyze pb in
  Alcotest.(check bool) "has FD_3 proxy" true
    (List.exists (fun (fd, name) -> fd = 3 && name = "FD_3") ss.Sysstate.fd_files);
  let content = List.assoc "FD_3" ss.Sysstate.files in
  Alcotest.(check bool) "proxy content from reads" true (String.length content > 0);
  (* Proxy content equals what the region actually read: a slice of
     input.dat following the pre-region reads. *)
  let expected_sub = String.sub Elfie_workloads.Programs.input_file_content 0 4 in
  ignore expected_sub;
  Alcotest.(check bool) "content multiple of read size" true
    (String.length content mod 64 = 0)

let test_sysstate_brk () =
  let spec =
    Elfie_workloads.Programs.spec
      ~phases:[ { kernel = Elfie_workloads.Kernels.Alu; reps = 2000 } ]
      ~outer_reps:8 ~ws_bytes:16384 ~heap_churn:true "ssbrk"
  in
  let rs = Elfie_workloads.Programs.run_spec spec in
  let r = Logger.capture rs ~name:"ssbrk" { Logger.start = 30_000L; length = 60_000L } in
  let ss = Sysstate.analyze r.Logger.pinball in
  Alcotest.(check bool) "brk advanced in region" true
    (ss.Sysstate.brk_end > ss.Sysstate.brk_start)

let test_sysstate_in_region_open_with_lseek () =
  (* A file opened *inside* the region gets a proxy under its own name,
     with read data placed at the positions the region read it from
     (lseek-aware), so the ELFie's re-executed open/lseek/read succeed
     with the same data. *)
  let open Elfie_isa in
  let b = Builder.create () in
  let path = Builder.new_label b in
  let mov_imm r v = Builder.ins b (Insn.Mov_ri (r, v)) in
  let sys nr =
    mov_imm Reg.RAX (Int64.of_int nr);
    Builder.ins b Insn.Syscall
  in
  Builder.mov_label b Reg.RDI path;
  mov_imm Reg.RSI 0L;
  mov_imm Reg.RDX 0L;
  sys Elfie_kernel.Abi.sys_open;
  Builder.ins b (Insn.Mov_rr (Reg.R12, Reg.RAX));
  (* lseek(fd, 4, SEEK_SET); read 4 bytes; exit with their first byte *)
  Builder.ins b (Insn.Mov_rr (Reg.RDI, Reg.R12));
  mov_imm Reg.RSI 4L;
  mov_imm Reg.RDX 0L;
  sys Elfie_kernel.Abi.sys_lseek;
  Builder.ins b (Insn.Mov_rr (Reg.RDI, Reg.R12));
  mov_imm Reg.RSI 0x60_0000L;
  mov_imm Reg.RDX 4L;
  sys Elfie_kernel.Abi.sys_read;
  Builder.ins b (Insn.Load (Insn.W8, Reg.RDI, Insn.mem_abs 0x60_0000L));
  sys Elfie_kernel.Abi.sys_exit_group;
  Builder.bind b path;
  Builder.raw b (Bytes.of_string "data.bin\000");
  let image = Tutil.image_of ~data_section:(0x60_0000L, 4096) b in
  let rs =
    Run.spec
      ~fs_init:(fun fs -> Elfie_kernel.Fs.add_file fs ~path:"/data.bin" "ABCDEFGH")
      image
  in
  (* Capture the whole run as the region. *)
  let r = Logger.capture rs ~name:"lseek" { Logger.start = 0L; length = 100_000L } in
  let ss = Sysstate.analyze r.Logger.pinball in
  let proxy = List.assoc "/data.bin" ss.Sysstate.files in
  Alcotest.(check string) "content positioned at offset 4" "EFGH"
    (String.sub proxy 4 4);
  (* And the ELFie re-executes the open/lseek/read successfully. *)
  let elfie =
    Elfie_core.Pinball2elf.convert
      ~options:{ Elfie_core.Pinball2elf.default_options with sysstate = Some ss }
      r.Logger.pinball
  in
  let o =
    Elfie_core.Elfie_runner.run
      ~fs_init:(fun fs -> Sysstate.install ss fs ~workdir:"/work")
      ~cwd:"/work" elfie
  in
  Alcotest.(check bool) "elfie graceful" true o.Elfie_core.Elfie_runner.graceful

let test_sysstate_files_roundtrip () =
  let pb = Tutil.tiny_pinball ~file_io:true "ssround" in
  let ss = Sysstate.analyze pb in
  let ss' = Result.get_ok (Sysstate.of_files_result (Sysstate.to_files ss)) in
  Alcotest.(check bool) "roundtrip" true
    (ss.Sysstate.files = ss'.Sysstate.files
    && ss.Sysstate.fd_files = ss'.Sysstate.fd_files
    && ss.Sysstate.brk_start = ss'.Sysstate.brk_start
    && ss.Sysstate.brk_end = ss'.Sysstate.brk_end)

let test_sysstate_install () =
  let pb = Tutil.tiny_pinball ~file_io:true "ssinst" in
  let ss = Sysstate.analyze pb in
  let fs = Elfie_kernel.Fs.create () in
  Sysstate.install ss fs ~workdir:"/work";
  Alcotest.(check bool) "FD_3 installed" true
    (Elfie_kernel.Fs.exists fs "/work/FD_3")

let suite =
  [
    Alcotest.test_case "tool chaining and detach" `Quick test_tool_chaining_and_detach;
    Alcotest.test_case "tool order, lone callback, detach" `Quick
      test_tool_order_and_detach;
    Alcotest.test_case "native run clean" `Quick test_native_run_clean;
    Alcotest.test_case "ST retired count seed-independent" `Quick
      test_native_st_deterministic_retired;
    Alcotest.test_case "capture exact region" `Quick test_capture_exact_region;
    Alcotest.test_case "capture deterministic" `Quick test_capture_deterministic;
    Alcotest.test_case "fat vs lean pinballs" `Quick test_fat_vs_lean;
    Alcotest.test_case "capture past program end" `Quick test_capture_past_end;
    Alcotest.test_case "capture truncated region" `Quick test_capture_truncated_region;
    Alcotest.test_case "capture_many matches single" `Quick
      test_capture_many_matches_single;
    Alcotest.test_case "capture_many skips unreachable" `Quick
      test_capture_many_skips_unreachable;
    Alcotest.test_case "pinned: lean capture's touched pages" `Quick
      test_lean_pages_pinned;
    Alcotest.test_case "lean capture keeps both ends of each access" `Quick
      test_lean_pages_access_ends;
    Alcotest.test_case "lean capture_many matches single" `Quick
      test_lean_capture_many_matches_single;
    Alcotest.test_case "fat capture runs chained" `Quick
      test_fat_capture_runs_chained;
    Alcotest.test_case "marker-delimited capture" `Quick test_marker_delimited_capture;
    Alcotest.test_case "constrained replay matches" `Quick
      test_constrained_replay_matches;
    Alcotest.test_case "injection provides file data" `Quick
      test_injection_provides_file_data;
    Alcotest.test_case "injectionless replay" `Quick test_injectionless_mimics_elfie;
    Alcotest.test_case "replay does not mutate pinball" `Quick
      test_replay_memory_image_isolated;
    Alcotest.test_case "replay divergence detection" `Quick
      test_replay_divergence_detection;
    Alcotest.test_case "bbv slices" `Quick test_bbv_slices;
    Alcotest.test_case "bbv distinct phases" `Quick test_bbv_phases_have_distinct_vectors;
    Alcotest.test_case "sysstate FD proxy" `Quick test_sysstate_fd_proxy;
    Alcotest.test_case "sysstate brk log" `Quick test_sysstate_brk;
    Alcotest.test_case "sysstate in-region open + lseek" `Quick
      test_sysstate_in_region_open_with_lseek;
    Alcotest.test_case "sysstate files roundtrip" `Quick test_sysstate_files_roundtrip;
    Alcotest.test_case "sysstate install" `Quick test_sysstate_install;
    Alcotest.test_case "start_roi from a marker or at once" `Quick test_start_roi;
    Alcotest.test_case "front-end machine charges no penalties" `Quick
      test_front_end_machine_charges_no_penalties;
  ]

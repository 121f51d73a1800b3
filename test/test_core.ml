(* Tests for pinball2elf and native ELFie execution — the paper's core
   contribution: conversion structure, graceful exit, SYSSTATE, stack
   collision, markers, monitor thread, object mode. *)

open Elfie_core
module Pinball = Elfie_pinball.Pinball
module Image = Elfie_elf.Image

let convert ?options pb = Pinball2elf.convert ?options pb

let run_elfie ?(seed = 11L) ?(sysstate : Elfie_pin.Sysstate.t option) ?max_ins image =
  let fs_init fs =
    match sysstate with
    | Some ss -> Elfie_pin.Sysstate.install ss fs ~workdir:"/work"
    | None -> ()
  in
  Elfie_runner.run ~seed ~fs_init ~cwd:"/work" ?max_ins image

let test_structure () =
  let pb = Tutil.tiny_pinball "structure" in
  let image = convert pb in
  Alcotest.(check bool) "executable" true image.Image.exec;
  Alcotest.(check bool) "has startup text" true
    (Image.find_section image ".elfie.text" <> None);
  Alcotest.(check bool) "has startup data" true
    (Image.find_section image ".elfie.data" <> None);
  Alcotest.(check bool) "has pinball sections" true
    (List.exists
       (fun (s : Image.section) ->
         String.length s.name > 4 && String.sub s.name 0 4 = ".pb.")
       image.Image.sections);
  Alcotest.(check (option Tutil.i64)) "entry is _start"
    (Some image.Image.entry)
    (Image.find_symbol image "_start");
  (* Startup must not overlap any pinball page. *)
  let startup = Option.get (Image.find_section image ".elfie.text") in
  List.iter
    (fun (s : Image.section) ->
      if String.length s.name > 4 && String.sub s.name 0 4 = ".pb." then begin
        let s_end = Int64.add s.addr (Int64.of_int (Bytes.length s.data)) in
        let t_end =
          Int64.add startup.addr (Int64.of_int (Bytes.length startup.data))
        in
        Alcotest.(check bool) "no overlap" true
          (Int64.unsigned_compare t_end s.addr <= 0
          || Int64.unsigned_compare s_end startup.addr <= 0)
      end)
    image.Image.sections

let test_register_symbols () =
  let pb = Tutil.tiny_pinball "symbols" in
  let image = convert pb in
  let ctx = pb.Pinball.contexts.(0) in
  Alcotest.(check bool) "has .t0.rip slot" true
    (Image.find_symbol image ".t0.rip" <> None);
  (* The .t0.<reg> data quad holds the checkpointed register value. *)
  let check_quad name expected =
    match Image.find_symbol image name with
    | None -> Alcotest.failf "missing symbol %s" name
    | Some addr ->
        let sec = Option.get (Image.find_section image ".elfie.data") in
        let off = Int64.to_int (Int64.sub addr sec.Image.addr) in
        Alcotest.check Tutil.i64 name expected (Bytes.get_int64_le sec.Image.data off)
  in
  check_quad ".t0.rax" (Elfie_machine.Context.get ctx Elfie_isa.Reg.RAX);
  check_quad ".t0.rcx" (Elfie_machine.Context.get ctx Elfie_isa.Reg.RCX);
  check_quad ".t0.rip" (Elfie_machine.Context.rip ctx);
  check_quad ".t0.fs_base" ctx.Elfie_machine.Context.fs_base

let test_stack_sections_non_alloc () =
  let pb = Tutil.tiny_pinball "nonalloc" in
  let image = convert pb in
  let stack_sections =
    List.filter
      (fun (s : Image.section) ->
        String.length s.name > 7 && String.sub s.name 0 7 = ".stack.")
      image.Image.sections
  in
  Alcotest.(check bool) "has stack sections" true (stack_sections <> []);
  List.iter
    (fun (s : Image.section) ->
      Alcotest.(check bool) (s.name ^ " non-alloc") false s.alloc)
    stack_sections

let test_elfie_runs_gracefully_exact () =
  let pb = Tutil.tiny_pinball ~file_io:true ~time_calls:true "graceful" in
  let ss = Elfie_pin.Sysstate.analyze pb in
  let options = { Pinball2elf.default_options with sysstate = Some ss } in
  let image = convert ~options pb in
  let o = run_elfie ~sysstate:ss image in
  Alcotest.(check (option string)) "no load error" None o.Elfie_runner.load_error;
  Alcotest.(check (option string)) "no fault" None o.Elfie_runner.fault;
  Alcotest.(check bool) "graceful" true o.Elfie_runner.graceful;
  (* app_retired = region icount + the 5-instruction post-arm epilogue. *)
  Alcotest.check Tutil.i64 "exact region length"
    (Int64.add (Pinball.total_icount pb) 5L)
    o.Elfie_runner.app_retired

let test_elfie_byte_roundtrip_runs () =
  (* Serialize the ELFie to real ELF bytes, parse, and run the result. *)
  let pb = Tutil.tiny_pinball "bytes" in
  let image = convert pb in
  let image' = Image.read (Image.write image) in
  let o = run_elfie image' in
  Alcotest.(check bool) "graceful after write/read" true o.Elfie_runner.graceful

let test_elfie_same_memory_layout () =
  (* Every pinball page address appears as a section at the same
     address (the "same memory layout as the original pinball" property). *)
  let pb = Tutil.tiny_pinball "layout" in
  let image = convert pb in
  let covered addr =
    List.exists
      (fun (s : Image.section) ->
        s.addr <= addr
        && Int64.add s.addr (Int64.of_int (Bytes.length s.data)) > addr)
      image.Image.sections
  in
  List.iter (fun (addr, _) -> Alcotest.(check bool) "page covered" true (covered addr))
    pb.Pinball.pages

let test_marker_present () =
  let pb = Tutil.tiny_pinball "marker" in
  let options =
    { Pinball2elf.default_options with marker = Some (Pinball2elf.Ssc 0xbeefL) }
  in
  let image = convert ~options pb in
  (* Run and observe the marker firing before app code. *)
  let machine =
    Elfie_machine.Machine.create
      (Elfie_machine.Machine.Free { seed = 3L; quantum_min = 50; quantum_max = 50 })
  in
  let kernel = Elfie_kernel.Vkernel.create (Elfie_kernel.Fs.create ()) in
  Elfie_kernel.Vkernel.install kernel machine;
  let _ = Elfie_kernel.Loader.load kernel machine image ~argv:[ "e" ] ~env:[] in
  let seen = ref None in
  (Elfie_machine.Machine.hooks machine).on_marker <-
    Some (fun _ ins -> if !seen = None then seen := Some ins);
  Elfie_machine.Machine.run ~max_ins:2_000_000L machine;
  match !seen with
  | Some (Elfie_isa.Insn.Ssc_marker 0xbeefL) -> ()
  | _ -> Alcotest.fail "SSC marker not observed"

let test_stack_collision_modes () =
  let pb = Tutil.tiny_pinball "collide" in
  (* Non-allocatable stack sections (the fix): loads under every seed. *)
  let fixed = convert pb in
  for seed = 1 to 10 do
    let o = run_elfie ~seed:(Int64.of_int seed) fixed in
    Alcotest.(check (option string)) "fix always loads" None o.Elfie_runner.load_error
  done;
  (* Allocatable stack sections (the bug): some seeds die at load. *)
  let buggy =
    convert ~options:{ Pinball2elf.default_options with alloc_stack_sections = true } pb
  in
  let failures = ref 0 in
  for seed = 1 to 30 do
    let o = run_elfie ~seed:(Int64.of_int seed) buggy in
    if o.Elfie_runner.load_error <> None then incr failures
  done;
  Alcotest.(check bool)
    (Printf.sprintf "collisions occur (%d/30)" !failures)
    true (!failures > 0)

let test_sysstate_required_for_file_region () =
  let pb = Tutil.tiny_pinball ~file_io:true "needss" in
  let ss = Elfie_pin.Sysstate.analyze pb in
  let options = { Pinball2elf.default_options with sysstate = Some ss } in
  let image = convert ~options pb in
  (* With sysstate installed the run is graceful. *)
  let ok = run_elfie ~sysstate:ss image in
  Alcotest.(check bool) "with proxies" true ok.Elfie_runner.graceful;
  (* The FD_n path: the proxy really is read through descriptor 3. *)
  Alcotest.(check bool) "proxy exists" true
    (List.mem_assoc "FD_3" ss.Elfie_pin.Sysstate.files)

let test_monitor_thread () =
  let pb = Tutil.tiny_pinball "monitor" in
  let options = { Pinball2elf.default_options with monitor_thread = true } in
  let image = convert ~options pb in
  Alcotest.(check bool) "has elfie_on_exit" true
    (Image.find_symbol image "elfie_on_exit" <> None);
  let o = run_elfie ~max_ins:2_000_000L image in
  Alcotest.(check string) "exit callback output" "ELFIE-EXIT\n" o.Elfie_runner.stdout

let test_object_only () =
  let pb = Tutil.tiny_pinball "object" in
  let image =
    convert ~options:{ Pinball2elf.default_options with object_only = true } pb
  in
  Alcotest.(check bool) "relocatable" false image.Image.exec;
  Alcotest.(check bool) "has register dump" true
    (Image.find_section image ".elfie.regs" <> None);
  (* Byte-serialize as ET_REL and read back. *)
  let image' = Image.read (Image.write image) in
  Alcotest.(check bool) "rel roundtrip" false image'.Image.exec

let test_warmup_mark () =
  let pb = Tutil.tiny_pinball ~start:20_000L ~length:30_000L "warm" in
  let options = { Pinball2elf.default_options with warmup_mark = Some 10_000L } in
  let image = convert ~options pb in
  let o = run_elfie image in
  Alcotest.(check bool) "graceful" true o.Elfie_runner.graceful;
  Alcotest.(check bool) "slice cpi differs from region cpi" true
    (o.Elfie_runner.slice_cpi > 0.0)

let test_mt_elfie () =
  let pb =
    Tutil.tiny_pinball ~threads:4 ~start:60_000L ~length:80_000L "mt"
  in
  Alcotest.(check int) "four threads captured" 4 (Pinball.num_threads pb);
  let image = convert pb in
  let o = run_elfie ~max_ins:5_000_000L image in
  Alcotest.(check int) "four threads in elfie" 4 o.Elfie_runner.threads;
  Alcotest.(check (option string)) "no fault" None o.Elfie_runner.fault;
  Alcotest.(check bool) "all counters fired" true o.Elfie_runner.graceful

let test_mt_elfie_nondeterministic_runtime () =
  let pb = Tutil.tiny_pinball ~threads:4 ~start:60_000L ~length:80_000L "mtnd" in
  let image = convert pb in
  let o1 = run_elfie ~seed:1L ~max_ins:5_000_000L image in
  let o2 = run_elfie ~seed:2L ~max_ins:5_000_000L image in
  (* Interleaving differs across seeds, so region timing differs — the
     paper's run-to-run non-determinism of ELFies. (Retired counts are
     pinned by the per-thread exit counters.) *)
  Alcotest.(check bool) "run-to-run timing variation" true
    (o1.Elfie_runner.app_cycles <> o2.Elfie_runner.app_cycles)

let test_divergence_faults_cleanly () =
  (* A lean pinball misses pages the region never touched; running an
     ELFie built from it with counters disabled overruns the region and
     must die with a page fault, not a crash of the host. *)
  let rs = Tutil.tiny_run_spec "diverge" in
  let r =
    Elfie_pin.Logger.capture ~fat:false rs ~name:"lean"
      { Elfie_pin.Logger.start = 20_000L; length = 1_000L }
  in
  let options = { Pinball2elf.default_options with arm_counters = false } in
  let image = convert ~options r.Elfie_pin.Logger.pinball in
  let o = run_elfie ~max_ins:10_000_000L image in
  Alcotest.(check bool) "not graceful" false o.Elfie_runner.graceful

let test_context_listing_is_valid_asm () =
  (* The dumped context listing must itself assemble, and its register
     quads must hold the checkpointed values. *)
  let pb = Tutil.tiny_pinball "ctxdump" in
  let listing = Pinball2elf.context_listing pb in
  match Elfie_asm.Asm.assemble ~base:0L listing with
  | Error e -> Alcotest.failf "listing does not assemble: %s"
                 (Format.asprintf "%a" Elfie_asm.Asm.pp_error e)
  | Ok prog ->
      Alcotest.(check bool) "nonempty" true (Bytes.length prog.code > 0);
      (* Last two quads of thread 0's block are rsp and rip. *)
      let ctx = pb.Pinball.contexts.(0) in
      let n = Bytes.length prog.code in
      Alcotest.check Tutil.i64 "rip quad" (Elfie_machine.Context.rip ctx)
        (Bytes.get_int64_le prog.code (n - 8));
      Alcotest.check Tutil.i64 "rsp quad"
        (Elfie_machine.Context.get ctx Elfie_isa.Reg.RSP)
        (Bytes.get_int64_le prog.code (n - 16))

let test_symbol_passthrough () =
  (* Application symbols travel pinball -> ELFie, at unchanged addresses
     (the ELFie preserves the parent's memory layout). *)
  let spec = Tutil.tiny_spec "syms" in
  let app_image = Elfie_workloads.Programs.image spec in
  let pb = Tutil.tiny_pinball "syms" in
  let elfie = convert pb in
  List.iter
    (fun name ->
      Alcotest.(check (option Tutil.i64))
        ("symbol " ^ name)
        (Image.find_symbol app_image name)
        (Image.find_symbol elfie name))
    (* the app's own "_start" is shadowed by the ELFie startup symbol *)
    [ "worker"; "outer_loop" ]

let test_extra_on_start_callback () =
  (* The -p switch: user code linked into elfie_on_start. Ours writes a
     banner to stdout before any application code runs. *)
  let pb = Tutil.tiny_pinball "cbstart" in
  let banner = "CB\n" in
  let extra b =
    let open Elfie_isa in
    let msg = Builder.new_label b in
    let after = Builder.new_label b in
    Builder.ins b (Insn.Mov_ri (Reg.RDI, 1L));
    Builder.mov_label b Reg.RSI msg;
    Builder.ins b (Insn.Mov_ri (Reg.RDX, Int64.of_int (String.length banner)));
    Builder.ins b (Insn.Mov_ri (Reg.RAX, Int64.of_int Elfie_kernel.Abi.sys_write));
    Builder.ins b Insn.Syscall;
    Builder.jmp b after;
    Builder.bind b msg;
    Builder.raw b (Bytes.of_string banner);
    Builder.bind b after
  in
  let options =
    { Pinball2elf.default_options with extra_on_start = Some extra }
  in
  let o = run_elfie (convert ~options pb) in
  Alcotest.(check bool) "still graceful" true o.Elfie_runner.graceful;
  Alcotest.(check string) "banner written" banner o.Elfie_runner.stdout

let test_extra_on_thread_start_callback () =
  (* The -t switch: per-thread user code. Ours drops a recognisable
     marker; one per thread must fire before application code. *)
  let pb = Tutil.tiny_pinball ~threads:4 ~start:60_000L ~length:50_000L "cbthread" in
  let extra b = Elfie_isa.Builder.ins b (Elfie_isa.Insn.Ssc_marker 0x77L) in
  let options =
    { Pinball2elf.default_options with extra_on_thread_start = Some extra }
  in
  let image = convert ~options pb in
  let machine =
    Elfie_machine.Machine.create
      (Elfie_machine.Machine.Free { seed = 5L; quantum_min = 50; quantum_max = 50 })
  in
  let kernel = Elfie_kernel.Vkernel.create (Elfie_kernel.Fs.create ()) in
  Elfie_kernel.Vkernel.install kernel machine;
  let _ = Elfie_kernel.Loader.load kernel machine image ~argv:[ "e" ] ~env:[] in
  let hits = ref 0 in
  (Elfie_machine.Machine.hooks machine).on_marker <-
    Some (fun _ ins -> if ins = Elfie_isa.Insn.Ssc_marker 0x77L then incr hits);
  Elfie_machine.Machine.run ~max_ins:10_000_000L machine;
  Alcotest.(check int) "one marker per thread" 4 !hits

let test_extra_on_exit_callback () =
  (* The -e switch: user code in elfie_on_exit (implies the monitor). *)
  let pb = Tutil.tiny_pinball "cbexit" in
  let extra b = Elfie_isa.Builder.ins b (Elfie_isa.Insn.Ssc_marker 0x99L) in
  let options = { Pinball2elf.default_options with extra_on_exit = Some extra } in
  let image = convert ~options pb in
  Alcotest.(check bool) "monitor implied" true
    (Image.find_symbol image "elfie_on_exit" <> None);
  let o = run_elfie ~max_ins:5_000_000L image in
  Alcotest.(check string) "monitor reports" "ELFIE-EXIT\n" o.Elfie_runner.stdout

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_linker_script () =
  let pb = Tutil.tiny_pinball "ldscript" in
  let image = convert pb in
  let script = Pinball2elf.linker_script image in
  Alcotest.(check bool) "mentions startup" true (contains ~sub:".elfie.text" script);
  Alcotest.(check bool) "mentions non-loaded stack" true
    (contains ~sub:"not loaded" script)

let suite =
  [
    Alcotest.test_case "conversion structure" `Quick test_structure;
    Alcotest.test_case "register symbols" `Quick test_register_symbols;
    Alcotest.test_case "stack sections non-alloc" `Quick test_stack_sections_non_alloc;
    Alcotest.test_case "elfie graceful exact icount" `Quick
      test_elfie_runs_gracefully_exact;
    Alcotest.test_case "elfie byte roundtrip runs" `Quick test_elfie_byte_roundtrip_runs;
    Alcotest.test_case "same memory layout" `Quick test_elfie_same_memory_layout;
    Alcotest.test_case "ROI marker" `Quick test_marker_present;
    Alcotest.test_case "stack collision fix vs bug" `Quick test_stack_collision_modes;
    Alcotest.test_case "sysstate file region" `Quick test_sysstate_required_for_file_region;
    Alcotest.test_case "monitor thread / elfie_on_exit" `Quick test_monitor_thread;
    Alcotest.test_case "object-only mode" `Quick test_object_only;
    Alcotest.test_case "warmup mark" `Quick test_warmup_mark;
    Alcotest.test_case "multi-threaded elfie" `Quick test_mt_elfie;
    Alcotest.test_case "MT non-determinism" `Quick test_mt_elfie_nondeterministic_runtime;
    Alcotest.test_case "divergence faults cleanly" `Quick test_divergence_faults_cleanly;
    Alcotest.test_case "linker script" `Quick test_linker_script;
    Alcotest.test_case "context listing assembles" `Quick
      test_context_listing_is_valid_asm;
    Alcotest.test_case "application symbol pass-through" `Quick test_symbol_passthrough;
    Alcotest.test_case "extra elfie_on_start code" `Quick test_extra_on_start_callback;
    Alcotest.test_case "extra thread-start code" `Quick
      test_extra_on_thread_start_callback;
    Alcotest.test_case "extra elfie_on_exit code" `Quick test_extra_on_exit_callback;
  ]

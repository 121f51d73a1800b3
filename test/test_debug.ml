(* Tests for the Vgdb debugger, exercising the paper's recommended ELFie
   debugging workflow. *)

module Debugger = Elfie_debug.Debugger
module Pinball2elf = Elfie_core.Pinball2elf

let elfie () =
  let pb = Tutil.tiny_pinball ~file_io:true "dbg" in
  let ss = Elfie_pin.Sysstate.analyze pb in
  let image =
    Pinball2elf.convert
      ~options:{ Pinball2elf.default_options with sysstate = Some ss }
      pb
  in
  (pb, image, fun fs -> Elfie_pin.Sysstate.install ss fs ~workdir:"/work")

let launch () =
  let pb, image, fs_init = elfie () in
  (pb, Debugger.launch ~fs_init ~cwd:"/work" image)

let test_break_on_elfie_on_start () =
  let _, dbg = launch () in
  (match Debugger.break_symbol dbg "elfie_on_start" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  match Debugger.continue_ dbg with
  | Debugger.Breakpoint { tid = 0; addr } ->
      Alcotest.(check (option string))
        "symbolized" (Some "elfie_on_start")
        (Option.map fst (Debugger.symbol_near dbg addr));
      (* At elfie_on_start all application pages are mapped (the paper's
         guarantee): the app code page is readable. *)
      Alcotest.(check bool) "app text mapped" true
        (Debugger.read_mem dbg 0x40_0000L 16 <> None)
  | other ->
      Alcotest.failf "unexpected stop: %s" (Format.asprintf "%a" Debugger.pp_stop other)

let test_break_on_application_symbol () =
  (* Symbolic debugging of application code via pass-through symbols. *)
  let _, dbg = launch () in
  (match Debugger.break_symbol dbg "outer_loop" with
  | Ok addr -> Alcotest.(check bool) "app address" true (addr >= 0x40_0000L)
  | Error e -> Alcotest.fail e);
  match Debugger.continue_ dbg with
  | Debugger.Breakpoint { addr; _ } ->
      Alcotest.(check (option string))
        "stopped at app symbol" (Some "outer_loop")
        (Option.map fst (Debugger.symbol_near dbg addr))
  | other ->
      Alcotest.failf "unexpected stop: %s" (Format.asprintf "%a" Debugger.pp_stop other)

let test_step_advances_one_instruction () =
  let _, dbg = launch () in
  let rip tid = Elfie_machine.Context.rip (Debugger.registers dbg ~tid) in
  let r0 = rip 0 in
  (match Debugger.step ~tid:0 dbg with
  | Debugger.Step_done 0 -> ()
  | other -> Alcotest.failf "step: %s" (Format.asprintf "%a" Debugger.pp_stop other));
  Alcotest.(check bool) "rip advanced" true (rip 0 <> r0)

let test_disassemble_at_entry () =
  let _, dbg = launch () in
  let entry = Elfie_machine.Context.rip (Debugger.registers dbg ~tid:0) in
  let listing = Debugger.disassemble dbg ~addr:entry ~count:5 in
  Alcotest.(check int) "five instructions" 5 (List.length listing);
  Alcotest.(check bool) "addresses ascend" true
    (let addrs = List.map fst listing in
     List.sort compare addrs = addrs)

let test_run_to_exit () =
  let _, dbg = launch () in
  match Debugger.continue_ dbg with
  | Debugger.All_exited ->
      List.iter
        (fun (_, state, _) ->
          Alcotest.(check string) "clean exit" "exited 0" state)
        (Debugger.thread_summary dbg)
  | other ->
      Alcotest.failf "expected exit, got %s" (Format.asprintf "%a" Debugger.pp_stop other)

let test_budget () =
  let _, dbg = launch () in
  match Debugger.continue_ ~budget:100L dbg with
  | Debugger.Budget_exhausted -> ()
  | other -> Alcotest.failf "expected budget stop, got %s" (Format.asprintf "%a" Debugger.pp_stop other)

let test_clear_breakpoint () =
  let _, dbg = launch () in
  (match Debugger.break_symbol dbg "thread_init" with
  | Ok addr ->
      Alcotest.(check int) "one bp" 1 (List.length (Debugger.breakpoints dbg));
      Debugger.clear_at dbg addr
  | Error e -> Alcotest.fail e);
  match Debugger.continue_ dbg with
  | Debugger.All_exited -> ()
  | other -> Alcotest.failf "bp not cleared: %s" (Format.asprintf "%a" Debugger.pp_stop other)

let test_unknown_symbol () =
  let _, dbg = launch () in
  match Debugger.break_symbol dbg "no_such_fn" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected error"

let test_registers_at_app_entry () =
  (* Break at the thread entry's landing point (the checkpointed RIP) and
     compare every GPR with the pinball's context: the startup code must
     have restored the full register state. *)
  let pb, dbg = launch () in
  let ctx0 = pb.Elfie_pinball.Pinball.contexts.(0) in
  Debugger.break_at dbg (Elfie_machine.Context.rip ctx0);
  match Debugger.continue_ dbg with
  | Debugger.Breakpoint { tid; addr } ->
      Alcotest.check Tutil.i64 "at checkpointed rip" (Elfie_machine.Context.rip ctx0) addr;
      let regs = Debugger.registers dbg ~tid in
      List.iter
        (fun r ->
          Alcotest.check Tutil.i64
            (Elfie_isa.Reg.gpr_name r)
            (Elfie_machine.Context.get ctx0 r)
            (Elfie_machine.Context.get regs r))
        Elfie_isa.Reg.all_gprs;
      Alcotest.check Tutil.i64 "fs_base" ctx0.Elfie_machine.Context.fs_base
        regs.Elfie_machine.Context.fs_base;
      Alcotest.(check bytes) "xmm state"
        (Elfie_machine.Context.xsave ctx0)
        (Elfie_machine.Context.xsave regs)
  | other ->
      Alcotest.failf "unexpected stop: %s" (Format.asprintf "%a" Debugger.pp_stop other)

(* --- Time travel -------------------------------------------------------- *)

let steps_forward dbg n =
  for _ = 1 to n do
    ignore (Debugger.step dbg)
  done

(* Full-state equality of two debugged processes: every thread's context
   and retired count, and every mapped page. *)
let check_same_process msg a b =
  let ma = Debugger.machine a and mb = Debugger.machine b in
  let tha = Elfie_machine.Machine.threads ma
  and thb = Elfie_machine.Machine.threads mb in
  Alcotest.(check int) (msg ^ ": thread count") (List.length thb) (List.length tha);
  List.iter2
    (fun (ta : Elfie_machine.Machine.thread) (tb : Elfie_machine.Machine.thread) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: tid %d context" msg ta.Elfie_machine.Machine.tid)
        true
        (Elfie_machine.Context.equal ta.Elfie_machine.Machine.ctx
           tb.Elfie_machine.Machine.ctx);
      Alcotest.check Alcotest.int
        (Printf.sprintf "%s: tid %d retired" msg ta.Elfie_machine.Machine.tid)
        tb.Elfie_machine.Machine.retired ta.Elfie_machine.Machine.retired)
    tha thb;
  let pages m =
    Elfie_machine.Addr_space.(frozen_pages (freeze (Elfie_machine.Machine.mem m)))
  in
  Alcotest.(check bool)
    (msg ^ ": memory identical")
    true
    (List.equal
       (fun (x, p) (y, q) -> x = y && Bytes.equal p q)
       (pages ma) (pages mb))

let test_reverse_stepi_exact () =
  (* Forward 80, reverse 30: the reversed process must be bit-identical
     to a fresh one stepped forward 50 — registers, retired counts and
     every memory page. *)
  let _, image, fs_init = elfie () in
  let dbg = Debugger.launch ~fs_init ~cwd:"/work" ~snapshot_every:16 image in
  steps_forward dbg 80;
  Alcotest.(check int) "forward icount" 80 (Debugger.icount dbg);
  Alcotest.(check bool) "waypoints dropped" true (Debugger.waypoint_count dbg > 1);
  (match Debugger.reverse_stepi ~n:30 dbg with
  | Debugger.Step_done _ -> ()
  | other ->
      Alcotest.failf "reverse: %s" (Format.asprintf "%a" Debugger.pp_stop other));
  Alcotest.(check int) "reversed icount" 50 (Debugger.icount dbg);
  let fresh = Debugger.launch ~fs_init ~cwd:"/work" image in
  steps_forward fresh 50;
  check_same_process "reversed vs fresh" dbg fresh;
  (* Re-stepping forward off the reversed state stays on the recorded
     timeline. *)
  steps_forward dbg 30;
  steps_forward fresh 30;
  check_same_process "re-forwarded vs fresh" dbg fresh

let test_reverse_at_history_begin () =
  let _, image, fs_init = elfie () in
  let dbg = Debugger.launch ~fs_init ~cwd:"/work" image in
  (match Debugger.reverse_stepi dbg with
  | Debugger.History_begin -> ()
  | other ->
      Alcotest.failf "expected history begin, got %s"
        (Format.asprintf "%a" Debugger.pp_stop other));
  (* Reversing down to step 0 reports the boundary too. *)
  steps_forward dbg 5;
  match Debugger.reverse_stepi ~n:99 dbg with
  | Debugger.History_begin -> Alcotest.(check int) "at zero" 0 (Debugger.icount dbg)
  | other ->
      Alcotest.failf "expected history begin, got %s"
        (Format.asprintf "%a" Debugger.pp_stop other)

let test_reverse_continue_rewinds_to_breakpoint () =
  let _, image, fs_init = elfie () in
  let dbg = Debugger.launch ~fs_init ~cwd:"/work" ~snapshot_every:16 image in
  let bp =
    match Debugger.break_symbol dbg "outer_loop" with
    | Ok a -> a
    | Error e -> Alcotest.fail e
  in
  (match Debugger.continue_ dbg with
  | Debugger.Breakpoint _ -> ()
  | other ->
      Alcotest.failf "no forward hit: %s" (Format.asprintf "%a" Debugger.pp_stop other));
  let at_bp = Debugger.icount dbg in
  steps_forward dbg 40;
  match Debugger.reverse_continue dbg with
  | Debugger.Breakpoint { tid; addr } ->
      Alcotest.check Tutil.i64 "same breakpoint" bp addr;
      Alcotest.check Tutil.i64 "rip back on the breakpoint" bp
        (Elfie_machine.Context.rip (Debugger.registers dbg ~tid));
      Alcotest.(check bool) "strictly before current" true
        (Debugger.icount dbg >= at_bp && Debugger.icount dbg < at_bp + 40)
  | other ->
      Alcotest.failf "reverse-continue: %s"
        (Format.asprintf "%a" Debugger.pp_stop other)

let suite =
  [
    Alcotest.test_case "break on elfie_on_start" `Quick test_break_on_elfie_on_start;
    Alcotest.test_case "break on application symbol" `Quick
      test_break_on_application_symbol;
    Alcotest.test_case "step" `Quick test_step_advances_one_instruction;
    Alcotest.test_case "disassemble" `Quick test_disassemble_at_entry;
    Alcotest.test_case "run to exit" `Quick test_run_to_exit;
    Alcotest.test_case "budget" `Quick test_budget;
    Alcotest.test_case "clear breakpoint" `Quick test_clear_breakpoint;
    Alcotest.test_case "unknown symbol" `Quick test_unknown_symbol;
    Alcotest.test_case "registers restored at app entry" `Quick
      test_registers_at_app_entry;
    Alcotest.test_case "reverse-stepi is exact" `Quick test_reverse_stepi_exact;
    Alcotest.test_case "reverse at history begin" `Quick
      test_reverse_at_history_begin;
    Alcotest.test_case "reverse-continue rewinds to breakpoint" `Quick
      test_reverse_continue_rewinds_to_breakpoint;
  ]

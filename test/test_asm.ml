(* Tests for the textual VX86 assembler. *)

open Elfie_isa
module Asm = Elfie_asm.Asm

let assemble src =
  match Asm.assemble ~base:0x40_0000L src with
  | Ok p -> p
  | Error e -> Alcotest.failf "%a" Asm.pp_error e

let decode_all prog =
  Codec.disassemble prog.Builder.code ~off:0 ~count:1000 |> List.map snd

let test_basic_program () =
  let prog =
    assemble
      {|
      ; 10 * 7, then exit_group(70)
      _start:
          mov   rcx, 10
          mov   rax, 0
      loop:
          add   rax, 7
          sub   rcx, 1
          jne   loop
          mov   rdi, rax
          mov   rax, 231
          syscall
      |}
  in
  Alcotest.(check (list string))
    "instruction stream"
    [ "mov rcx, 0xa"; "mov rax, 0x0"; "add rax, 7"; "sub rcx, 1"; "jne .-20";
      "mov rdi, rax"; "mov rax, 0xe7"; "syscall" ]
    (List.map Insn.to_string (decode_all prog));
  Alcotest.(check (list string)) "symbols" [ "_start"; "loop" ]
    (List.map fst prog.Builder.symbols)

let test_assembled_program_runs () =
  let prog =
    assemble
      {|
      _start:
          mov   rcx, 10
          mov   rax, 0
      again:
          add   rax, 7
          sub   rcx, 1
          jne   again
          mov   rdi, rax
          mov   rax, 231
          syscall
      |}
  in
  let b = Builder.create () in
  Builder.raw b prog.Builder.code;
  let image = Tutil.image_of b in
  let machine, _ = Tutil.run_image image in
  match (Elfie_machine.Machine.thread machine 0).Elfie_machine.Machine.state with
  | Elfie_machine.Machine.Exited 70 -> ()
  | s ->
      Alcotest.failf "expected exit 70, got %s"
        (match s with
        | Elfie_machine.Machine.Exited n -> string_of_int n
        | Faulted f -> Format.asprintf "%a" Elfie_machine.Machine.pp_fault f
        | Runnable -> "runnable")

let test_memory_operands () =
  let prog =
    assemble
      {|
      mov   rax, [rbx]
      movq  [rbx+8], rax
      movb  rcx, [rbx + rdx*4 - 16]
      lea   rsi, [rbx + rcx]
      jmp   [rip_slot]
      rip_slot:
      .quad 0
      |}
  in
  match decode_all prog with
  | [ Load (W64, Reg.RAX, m1); Store (W64, m2, Reg.RAX); Load (W8, Reg.RCX, m3);
      Lea (Reg.RSI, _); Jmp_m m5 ] ->
      Alcotest.(check (option string)) "base" (Some "rbx")
        (Option.map Reg.gpr_name m1.Insn.base);
      Alcotest.check Tutil.i64 "disp" 8L m2.Insn.disp;
      Alcotest.(check int) "scale" 4 m3.Insn.scale;
      Alcotest.check Tutil.i64 "neg disp" (-16L) m3.Insn.disp;
      Alcotest.(check bool) "abs slot addr" true (m5.Insn.disp > 0x40_0000L)
  | other ->
      Alcotest.failf "unexpected decode: %s"
        (String.concat "; " (List.map Insn.to_string other))

let test_directives () =
  let prog =
    assemble {|
      .byte 1, 2, 3
      .align 8
      .quad 0x1122334455667788
      .asciz "hi"
      |}
  in
  let code = prog.Builder.code in
  Alcotest.(check int) "layout" 19 (Bytes.length code);
  Alcotest.check Tutil.i64 "quad at 8" 0x1122334455667788L (Bytes.get_int64_le code 8);
  Alcotest.(check string) "string" "hi\000" (Bytes.sub_string code 16 3)

let test_quad_label_and_mov_label () =
  let prog =
    assemble {|
      mov rax, data
      jmp end
      data:
      .quad data
      end:
      |}
  in
  match decode_all prog with
  | Mov_ri (Reg.RAX, addr) :: _ ->
      let off = Int64.to_int (Int64.sub addr 0x40_0000L) in
      Alcotest.check Tutil.i64 "self-referential quad" addr
        (Bytes.get_int64_le prog.Builder.code off)
  | _ -> Alcotest.fail "expected mov"

let test_vector_and_atomics () =
  let prog =
    assemble
      {|
      movdqu xmm1, [rax]
      vmulpd xmm1, xmm2
      movdqu [rax], xmm1
      xchg rbx, [rax]
      cmpxchg [rax], rcx
      pause
      |}
  in
  Alcotest.(check int) "six instructions" 6 (List.length (decode_all prog))

(* Property: the instruction printer emits valid assembler syntax for
   the data-movement/ALU subset, and assembling it round-trips. *)
let printable_ins_gen =
  let open QCheck.Gen in
  let gpr = QCheck.Gen.map Reg.gpr_of_index (int_range 0 15) in
  let mem =
    let* base = opt gpr in
    let* index = opt gpr in
    let* scale = oneofl [ 1; 2; 4; 8 ] in
    let* disp = map Int64.of_int (int_range (-4096) 1_000_000) in
    (* a memory operand with no register must print a non-negative
       absolute displacement, and scale is only printable with an index *)
    let disp = if base = None && index = None then Int64.abs disp else disp in
    let scale = if index = None then 1 else scale in
    return { Insn.base; index; scale; disp }
  in
  let alu = oneofl Insn.[ Add; Sub; And; Or; Xor; Imul; Cmp; Test ] in
  let width = oneofl Insn.[ W8; W16; W32; W64 ] in
  oneof
    [
      map2 (fun r v -> Insn.Mov_ri (r, Int64.abs v)) gpr (map Int64.of_int int);
      map2 (fun a b -> Insn.Mov_rr (a, b)) gpr gpr;
      map3 (fun w r m -> Insn.Load (w, r, m)) width gpr mem;
      map3 (fun w m r -> Insn.Store (w, m, r)) width mem gpr;
      map2 (fun r m -> Insn.Lea (r, m)) gpr mem;
      map3 (fun op a b -> Insn.Alu_rr (op, a, b)) alu gpr gpr;
      map3
        (fun op r v -> Insn.Alu_ri (op, r, Int64.of_int v))
        alu gpr (int_range (-1000000) 1000000);
      map3
        (fun op r n -> Insn.Shift_ri (op, r, n))
        (oneofl Insn.[ Shl; Shr; Sar ])
        gpr (int_range 0 63);
      map (fun r -> Insn.Neg r) gpr;
      map (fun r -> Insn.Push r) gpr;
      map (fun r -> Insn.Pop r) gpr;
      map2 (fun x m -> Insn.Vload (x, m)) (int_range 0 15) mem;
      map2 (fun m x -> Insn.Vstore (m, x)) mem (int_range 0 15);
      map3
        (fun op a b -> Insn.Vop_rr (op, a, b))
        (oneofl Insn.[ Vadd; Vmul; Vsub ])
        (int_range 0 15) (int_range 0 15);
    ]

let prop_print_parse_roundtrip =
  QCheck.Test.make ~name:"printer output reassembles to the same instruction"
    ~count:500
    (QCheck.make printable_ins_gen ~print:Insn.to_string)
    (fun ins ->
      let src = Insn.to_string ins in
      match Asm.assemble ~base:0L src with
      | Error _ -> false
      | Ok prog -> fst (Codec.decode_one prog.Builder.code 0) = ins)

let check_error name src expected_infix =
  Alcotest.test_case name `Quick (fun () ->
      match Asm.assemble ~base:0L src with
      | Ok _ -> Alcotest.fail "expected an error"
      | Error e ->
          let msg = Format.asprintf "%a" Asm.pp_error e in
          let contains sub s =
            let n = String.length sub and m = String.length s in
            let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
            go 0
          in
          Alcotest.(check bool)
            (Printf.sprintf "%S mentions %S" msg expected_infix)
            true (contains expected_infix msg))

let test_error_line_numbers () =
  match Asm.assemble ~base:0L "nop\nnop\nbogus_op rax\n" with
  | Error { line = 3; _ } -> ()
  | Error { line; _ } -> Alcotest.failf "wrong line %d" line
  | Ok _ -> Alcotest.fail "expected error"

let suite =
  [
    Alcotest.test_case "basic program" `Quick test_basic_program;
    Alcotest.test_case "assembled program runs" `Quick test_assembled_program_runs;
    Alcotest.test_case "memory operands" `Quick test_memory_operands;
    Alcotest.test_case "directives" `Quick test_directives;
    Alcotest.test_case "quad label / mov label" `Quick test_quad_label_and_mov_label;
    Alcotest.test_case "vector and atomics" `Quick test_vector_and_atomics;
    Alcotest.test_case "error line numbers" `Quick test_error_line_numbers;
    QCheck_alcotest.to_alcotest prop_print_parse_roundtrip;
    check_error "unknown register" "mov rzz, 1" "unknown instruction";
    check_error "unterminated string" ".ascii \"abc" "unterminated";
    check_error "double label" "a:\na:\nnop" "defined twice";
    check_error "unbound label" "jmp nowhere" "unbound label";
    check_error "bad directive" ".bogus 1" "unknown or malformed directive";
  ]

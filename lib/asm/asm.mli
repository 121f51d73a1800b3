(** A textual assembler for VX86.

    Intel-flavoured syntax, one statement per line:

    {v
    ; compute 10 * 7 and exit with it
    _start:
        mov   rcx, 10
        mov   rax, 0
    loop:
        add   rax, 7
        sub   rcx, 1
        jne   loop
        mov   rdi, rax
        mov   rax, 231        ; exit_group
        syscall
    msg:
        .asciz "hello"
        .align 8
        .quad  0xdeadbeef
    v}

    Memory operands are [[base + index*scale + disp]]; loads/stores are
    width-suffixed moves ([movb]/[movw]/[movl]/[movq]); [mov reg, label]
    loads a label's absolute address. Directives: [.byte], [.quad],
    [.ascii], [.asciz], [.zero N], [.align N].

    Assembly is two-pass via {!Elfie_isa.Builder}; labels may be used
    before they are defined. *)

type error = { line : int; message : string }

val pp_error : Format.formatter -> error -> unit

(** [assemble ~base source] assembles a program at virtual address
    [base]. All labels are exported as symbols. *)
val assemble :
  base:int64 -> string -> (Elfie_isa.Builder.program, error) result

(** Render one instruction back to parseable text (inverse of the
    instruction subset of the grammar, modulo label names). *)
val print_instruction : Elfie_isa.Insn.t -> string

(** VX86 instruction set: abstract syntax and pretty-printing.

    The set is a deliberately small but complete x86-64 analogue: enough
    to express real programs (ALU, memory, control flow, stack, atomics,
    vector arithmetic), the OS interface ([Syscall]), the marker
    instructions pinball2elf inserts ([Cpuid], [Ssc_marker], [Magic]),
    and the context-restore instruction used by ELFie startup code
    ([Ldctx], the XRSTOR analogue). Every instruction has a byte-exact
    binary encoding (see {!Codec}). *)

(** Access width for loads and stores. *)
type width = W8 | W16 | W32 | W64

val width_bytes : width -> int

(** Memory operand: [base + index*scale + disp]. [scale] is 1, 2, 4 or 8. *)
type mem = {
  base : Reg.gpr option;
  index : Reg.gpr option;
  scale : int;
  disp : int64;
}

(** Absolute-displacement operand helper. *)
val mem_abs : int64 -> mem

(** [mem_base r ~disp] is [[r + disp]]. *)
val mem_base : ?disp:int64 -> Reg.gpr -> mem

type alu = Add | Sub | And | Or | Xor | Imul | Cmp | Test
type shift = Shl | Shr | Sar

(** Branch conditions, with x86 signed/unsigned semantics. *)
type cond = Eq | Ne | Lt | Ge | Le | Gt | Ult | Uge

(** Packed-double vector operations on XMM registers. *)
type vop = Vadd | Vmul | Vsub

type t =
  | Mov_ri of Reg.gpr * int64  (** movabs r, imm64 *)
  | Mov_rr of Reg.gpr * Reg.gpr
  | Load of width * Reg.gpr * mem  (** zero-extending load *)
  | Store of width * mem * Reg.gpr
  | Lea of Reg.gpr * mem
  | Alu_rr of alu * Reg.gpr * Reg.gpr
  | Alu_ri of alu * Reg.gpr * int64  (** immediate is sign-extended imm32 *)
  | Shift_ri of shift * Reg.gpr * int
  | Neg of Reg.gpr
  | Push of Reg.gpr
  | Pop of Reg.gpr
  | Jmp of int  (** rel32, relative to next instruction *)
  | Jcc of cond * int
  | Jmp_r of Reg.gpr
  | Jmp_m of mem  (** indirect jump through a 64-bit memory slot *)
  | Call of int
  | Call_r of Reg.gpr
  | Ret
  | Syscall
  | Cpuid  (** also the [sniper] ROI marker *)
  | Nop
  | Ssc_marker of int64  (** long-NOP marker with 32-bit payload (Pintools SSC) *)
  | Magic of int  (** Simics magic instruction, 8-bit function code *)
  | Pause  (** spin-loop hint *)
  | Xchg of Reg.gpr * mem  (** atomic exchange *)
  | Cmpxchg of mem * Reg.gpr  (** lock cmpxchg: compares with RAX *)
  | Ldctx of Reg.gpr  (** XRSTOR analogue: load extended state from [[r]] *)
  | Stctx of Reg.gpr  (** XSAVE analogue: store extended state to [[r]] *)
  | Wrfsbase of Reg.gpr
  | Wrgsbase of Reg.gpr
  | Rdfsbase of Reg.gpr
  | Rdgsbase of Reg.gpr
  | Popf  (** pop flags word from stack *)
  | Pushf
  | Vload of int * mem  (** 128-bit load into xmm\[i\] *)
  | Vstore of mem * int
  | Vop_rr of vop * int * int  (** lane-wise double-precision arithmetic *)
  | Hlt
  | Ud2  (** guaranteed-invalid instruction *)

(** Instruction class used by timing models. *)
type klass = K_alu | K_load | K_store | K_branch | K_call | K_syscall | K_vector | K_other

val classify : t -> klass
val pp_mem : Format.formatter -> mem -> unit
val pp : Format.formatter -> t -> unit
val to_string : t -> string
val cond_name : cond -> string

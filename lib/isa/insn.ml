type width = W8 | W16 | W32 | W64

let width_bytes = function W8 -> 1 | W16 -> 2 | W32 -> 4 | W64 -> 8

type mem = {
  base : Reg.gpr option;
  index : Reg.gpr option;
  scale : int;
  disp : int64;
}

let mem_abs disp = { base = None; index = None; scale = 1; disp }
let mem_base ?(disp = 0L) r = { base = Some r; index = None; scale = 1; disp }

type alu = Add | Sub | And | Or | Xor | Imul | Cmp | Test
type shift = Shl | Shr | Sar
type cond = Eq | Ne | Lt | Ge | Le | Gt | Ult | Uge
type vop = Vadd | Vmul | Vsub

type t =
  | Mov_ri of Reg.gpr * int64
  | Mov_rr of Reg.gpr * Reg.gpr
  | Load of width * Reg.gpr * mem
  | Store of width * mem * Reg.gpr
  | Lea of Reg.gpr * mem
  | Alu_rr of alu * Reg.gpr * Reg.gpr
  | Alu_ri of alu * Reg.gpr * int64
  | Shift_ri of shift * Reg.gpr * int
  | Neg of Reg.gpr
  | Push of Reg.gpr
  | Pop of Reg.gpr
  | Jmp of int
  | Jcc of cond * int
  | Jmp_r of Reg.gpr
  | Jmp_m of mem
  | Call of int
  | Call_r of Reg.gpr
  | Ret
  | Syscall
  | Cpuid
  | Nop
  | Ssc_marker of int64
  | Magic of int
  | Pause
  | Xchg of Reg.gpr * mem
  | Cmpxchg of mem * Reg.gpr
  | Ldctx of Reg.gpr
  | Stctx of Reg.gpr
  | Wrfsbase of Reg.gpr
  | Wrgsbase of Reg.gpr
  | Rdfsbase of Reg.gpr
  | Rdgsbase of Reg.gpr
  | Popf
  | Pushf
  | Vload of int * mem
  | Vstore of mem * int
  | Vop_rr of vop * int * int
  | Hlt
  | Ud2

type klass = K_alu | K_load | K_store | K_branch | K_call | K_syscall | K_vector | K_other

let classify = function
  | Alu_rr _ | Alu_ri _ | Shift_ri _ | Neg _ | Mov_ri _ | Mov_rr _ | Lea _ -> K_alu
  | Load _ | Pop _ | Popf | Xchg _ | Cmpxchg _ -> K_load
  | Store _ | Push _ | Pushf -> K_store
  | Jmp _ | Jcc _ | Jmp_r _ | Jmp_m _ | Ret -> K_branch
  | Call _ | Call_r _ -> K_call
  | Syscall -> K_syscall
  | Vload _ | Vstore _ | Vop_rr _ -> K_vector
  | Cpuid | Nop | Ssc_marker _ | Magic _ | Pause | Ldctx _ | Stctx _ | Wrfsbase _
  | Wrgsbase _ | Rdfsbase _ | Rdgsbase _ | Hlt | Ud2 ->
      K_other

let cond_name = function
  | Eq -> "e"
  | Ne -> "ne"
  | Lt -> "l"
  | Ge -> "ge"
  | Le -> "le"
  | Gt -> "g"
  | Ult -> "b"
  | Uge -> "ae"

let alu_name = function
  | Add -> "add"
  | Sub -> "sub"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Imul -> "imul"
  | Cmp -> "cmp"
  | Test -> "test"

let shift_name = function Shl -> "shl" | Shr -> "shr" | Sar -> "sar"
let vop_name = function Vadd -> "vaddpd" | Vmul -> "vmulpd" | Vsub -> "vsubpd"

let width_suffix = function W8 -> "b" | W16 -> "w" | W32 -> "l" | W64 -> "q"

let pp_mem fmt m =
  let open Format in
  fprintf fmt "[";
  let printed = ref false in
  (match m.base with
  | Some b ->
      Reg.pp_gpr fmt b;
      printed := true
  | None -> ());
  (match m.index with
  | Some i ->
      if !printed then fprintf fmt "+";
      fprintf fmt "%a*%d" Reg.pp_gpr i m.scale;
      printed := true
  | None -> ());
  if m.disp <> 0L || not !printed then
    if !printed then fprintf fmt "%+Ld" m.disp else fprintf fmt "0x%Lx" m.disp;
  fprintf fmt "]"

let pp fmt ins =
  let open Format in
  match ins with
  | Mov_ri (r, v) -> fprintf fmt "mov %a, 0x%Lx" Reg.pp_gpr r v
  | Mov_rr (d, s) -> fprintf fmt "mov %a, %a" Reg.pp_gpr d Reg.pp_gpr s
  | Load (w, r, m) -> fprintf fmt "mov%s %a, %a" (width_suffix w) Reg.pp_gpr r pp_mem m
  | Store (w, m, r) -> fprintf fmt "mov%s %a, %a" (width_suffix w) pp_mem m Reg.pp_gpr r
  | Lea (r, m) -> fprintf fmt "lea %a, %a" Reg.pp_gpr r pp_mem m
  | Alu_rr (op, d, s) -> fprintf fmt "%s %a, %a" (alu_name op) Reg.pp_gpr d Reg.pp_gpr s
  | Alu_ri (op, d, v) -> fprintf fmt "%s %a, %Ld" (alu_name op) Reg.pp_gpr d v
  | Shift_ri (op, d, n) -> fprintf fmt "%s %a, %d" (shift_name op) Reg.pp_gpr d n
  | Neg r -> fprintf fmt "neg %a" Reg.pp_gpr r
  | Push r -> fprintf fmt "push %a" Reg.pp_gpr r
  | Pop r -> fprintf fmt "pop %a" Reg.pp_gpr r
  | Jmp rel -> fprintf fmt "jmp .%+d" rel
  | Jcc (c, rel) -> fprintf fmt "j%s .%+d" (cond_name c) rel
  | Jmp_r r -> fprintf fmt "jmp %a" Reg.pp_gpr r
  | Jmp_m m -> fprintf fmt "jmp %a" pp_mem m
  | Call rel -> fprintf fmt "call .%+d" rel
  | Call_r r -> fprintf fmt "call %a" Reg.pp_gpr r
  | Ret -> fprintf fmt "ret"
  | Syscall -> fprintf fmt "syscall"
  | Cpuid -> fprintf fmt "cpuid"
  | Nop -> fprintf fmt "nop"
  | Ssc_marker v -> fprintf fmt "ssc_marker 0x%Lx" v
  | Magic n -> fprintf fmt "magic %d" n
  | Pause -> fprintf fmt "pause"
  | Xchg (r, m) -> fprintf fmt "xchg %a, %a" Reg.pp_gpr r pp_mem m
  | Cmpxchg (m, r) -> fprintf fmt "lock cmpxchg %a, %a" pp_mem m Reg.pp_gpr r
  | Ldctx r -> fprintf fmt "ldctx [%a]" Reg.pp_gpr r
  | Stctx r -> fprintf fmt "stctx [%a]" Reg.pp_gpr r
  | Wrfsbase r -> fprintf fmt "wrfsbase %a" Reg.pp_gpr r
  | Wrgsbase r -> fprintf fmt "wrgsbase %a" Reg.pp_gpr r
  | Rdfsbase r -> fprintf fmt "rdfsbase %a" Reg.pp_gpr r
  | Rdgsbase r -> fprintf fmt "rdgsbase %a" Reg.pp_gpr r
  | Popf -> fprintf fmt "popf"
  | Pushf -> fprintf fmt "pushf"
  | Vload (x, m) -> fprintf fmt "movdqu xmm%d, %a" x pp_mem m
  | Vstore (m, x) -> fprintf fmt "movdqu %a, xmm%d" pp_mem m x
  | Vop_rr (op, d, s) -> fprintf fmt "%s xmm%d, xmm%d" (vop_name op) d s
  | Hlt -> fprintf fmt "hlt"
  | Ud2 -> fprintf fmt "ud2"

let to_string ins = Format.asprintf "%a" pp ins

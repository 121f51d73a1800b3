(* Reference interpreter for VX86: the differential oracle for the
   machine's micro-ops ([Machine] compiles every instruction to a
   closure and runs nothing else). It interprets one decoded
   instruction at a time over a context, an address space and a timing
   model, re-reading every operand from the AST and using only the
   general [Addr_space.read]/[write] accessors, so it shares no fast
   path with the code it checks.

   Timing and hook order are part of the semantics: an instruction costs
   its class's base cycles plus the cache penalty of each access and
   the predictor penalty of each branch; memory hooks fire just before
   each access (and before its cache lookup), the branch hook after the
   predictor update and before RIP moves, and the marker hook with RIP
   already past the marker. A faulting instruction charges nothing. *)

open Elfie_isa
open Elfie_machine

type hooks = {
  on_mem_read : int64 -> int -> unit;  (** address, width *)
  on_mem_write : int64 -> int -> unit;
  on_branch : int64 -> int64 -> bool -> unit;  (** pc, target, taken *)
  on_marker : Insn.t -> unit;
}

let effective_address ctx (m : Insn.mem) =
  let base = match m.base with Some r -> Context.get ctx r | None -> 0L in
  let index =
    match m.index with
    | Some r -> Int64.mul (Context.get ctx r) (Int64.of_int m.scale)
    | None -> 0L
  in
  Int64.add (Int64.add base index) m.disp

let truncate_width width v =
  match width with
  | Insn.W8 -> Int64.logand v 0xffL
  | W16 -> Int64.logand v 0xffffL
  | W32 -> Int64.logand v 0xffff_ffffL
  | W64 -> v

let set_result (flags : Reg.flags) ~cf ~ovf r =
  flags.cf <- cf;
  flags.ovf <- ovf;
  flags.zf <- r = 0L;
  flags.sf <- r < 0L;
  r

let alu (flags : Reg.flags) op a b =
  match op with
  | Insn.Add ->
      let r = Int64.add a b in
      set_result flags r
        ~cf:(Int64.unsigned_compare r a < 0)
        ~ovf:((a >= 0L && b >= 0L && r < 0L) || (a < 0L && b < 0L && r >= 0L))
  | Sub | Cmp ->
      let r = Int64.sub a b in
      set_result flags r
        ~cf:(Int64.unsigned_compare a b < 0)
        ~ovf:((a >= 0L && b < 0L && r < 0L) || (a < 0L && b >= 0L && r >= 0L))
  | And | Test -> set_result flags (Int64.logand a b) ~cf:false ~ovf:false
  | Or -> set_result flags (Int64.logor a b) ~cf:false ~ovf:false
  | Xor -> set_result flags (Int64.logxor a b) ~cf:false ~ovf:false
  | Imul -> set_result flags (Int64.mul a b) ~cf:false ~ovf:false

let shift (flags : Reg.flags) op v n =
  if n = 0 then v
  else
    let r, out =
      match op with
      | Insn.Shl -> (Int64.shift_left v n, Int64.shift_right_logical v (64 - n))
      | Shr -> (Int64.shift_right_logical v n, Int64.shift_right_logical v (n - 1))
      | Sar -> (Int64.shift_right v n, Int64.shift_right_logical v (n - 1))
    in
    set_result flags r ~cf:(Int64.logand out 1L = 1L) ~ovf:false

let cond (flags : Reg.flags) = function
  | Insn.Eq -> flags.zf
  | Ne -> not flags.zf
  | Lt -> flags.sf <> flags.ovf
  | Ge -> flags.sf = flags.ovf
  | Le -> flags.zf || flags.sf <> flags.ovf
  | Gt -> (not flags.zf) && flags.sf = flags.ovf
  | Ult -> flags.cf
  | Uge -> not flags.cf

let lane_op op a b =
  let fa = Int64.float_of_bits a and fb = Int64.float_of_bits b in
  Int64.bits_of_float
    (match op with Insn.Vadd -> fa +. fb | Vmul -> fa *. fb | Vsub -> fa -. fb)

(* Execute [ins], fetched at [pc], with RIP already past it. Returns the
   cycles it costs; raises [Addr_space.Fault] (for [Hlt] and [Ud2] too,
   at [pc] with access [Exec]) leaving any partial effect in place. *)
let execute ~timing ~mem ~syscall ~hooks ctx ~pc ins =
  let flags = ctx.Context.flags in
  let cost = ref (Timing.ins_cost (Insn.classify ins)) in
  let read addr w =
    hooks.on_mem_read addr w;
    cost := !cost + Timing.mem_cost timing (Cache.key addr);
    Addr_space.read mem addr w
  in
  let write addr w v =
    hooks.on_mem_write addr w;
    cost := !cost + Timing.mem_cost timing (Cache.key addr);
    Addr_space.write mem addr w v
  in
  let push v =
    let sp = Int64.sub (Context.get ctx RSP) 8L in
    Context.set ctx RSP sp;
    write sp 8 v
  in
  let pop () =
    let sp = Context.get ctx RSP in
    let v = read sp 8 in
    Context.set ctx RSP (Int64.add sp 8L);
    v
  in
  let branch target taken =
    cost := !cost + Timing.branch_cost timing ~pc ~taken;
    hooks.on_branch pc target taken;
    if taken then Context.set_rip ctx target
  in
  let rel r = Int64.add (Context.rip ctx) (Int64.of_int r) in
  (match ins with
  | Insn.Mov_ri (r, v) -> Context.set ctx r v
  | Mov_rr (d, s) -> Context.set ctx d (Context.get ctx s)
  | Load (w, r, m) ->
      Context.set ctx r (read (effective_address ctx m) (Insn.width_bytes w))
  | Store (w, m, r) ->
      let v = truncate_width w (Context.get ctx r) in
      write (effective_address ctx m) (Insn.width_bytes w) v
  | Lea (r, m) -> Context.set ctx r (effective_address ctx m)
  | Alu_rr (op, d, s) ->
      let r = alu flags op (Context.get ctx d) (Context.get ctx s) in
      if op <> Cmp && op <> Test then Context.set ctx d r
  | Alu_ri (op, d, imm) ->
      let r = alu flags op (Context.get ctx d) imm in
      if op <> Cmp && op <> Test then Context.set ctx d r
  | Shift_ri (op, d, n) -> Context.set ctx d (shift flags op (Context.get ctx d) n)
  | Neg d -> Context.set ctx d (alu flags Sub 0L (Context.get ctx d))
  | Push r -> push (Context.get ctx r)
  | Pop r -> Context.set ctx r (pop ())
  | Jmp r -> branch (rel r) true
  | Jcc (c, r) -> branch (rel r) (cond flags c)
  | Jmp_r r -> branch (Context.get ctx r) true
  | Jmp_m m -> branch (read (effective_address ctx m) 8) true
  | Call r ->
      let target = rel r in
      push (Context.rip ctx);
      branch target true
  | Call_r r ->
      push (Context.rip ctx);
      branch (Context.get ctx r) true
  | Ret -> branch (pop ()) true
  | Syscall -> syscall ctx
  | Cpuid ->
      hooks.on_marker ins;
      Context.set ctx RAX 1L;
      Context.set ctx RBX 0x36385856L;
      Context.set ctx RCX 0L;
      Context.set ctx RDX 0L
  | Nop -> ()
  | Ssc_marker _ | Magic _ -> hooks.on_marker ins
  | Pause -> cost := !cost + 10
  | Xchg (r, m) ->
      let addr = effective_address ctx m in
      let old = read addr 8 in
      write addr 8 (Context.get ctx r);
      Context.set ctx r old
  | Cmpxchg (m, r) ->
      let addr = effective_address ctx m in
      let old = read addr 8 in
      if old = Context.get ctx RAX then begin
        write addr 8 (Context.get ctx r);
        flags.zf <- true
      end
      else begin
        Context.set ctx RAX old;
        flags.zf <- false
      end
  | Ldctx r ->
      Context.xrstor ctx
        (Addr_space.read_bytes mem (Context.get ctx r) Context.xsave_size)
  | Stctx r -> Addr_space.write_bytes mem (Context.get ctx r) (Context.xsave ctx)
  | Wrfsbase r -> ctx.Context.fs_base <- Context.get ctx r
  | Wrgsbase r -> ctx.Context.gs_base <- Context.get ctx r
  | Rdfsbase r -> Context.set ctx r ctx.Context.fs_base
  | Rdgsbase r -> Context.set ctx r ctx.Context.gs_base
  | Popf ->
      let fl = Reg.flags_of_word (pop ()) in
      flags.zf <- fl.zf;
      flags.sf <- fl.sf;
      flags.cf <- fl.cf;
      flags.ovf <- fl.ovf
  | Pushf -> push (Reg.flags_to_word flags)
  | Vload (x, m) ->
      let addr = effective_address ctx m in
      Context.set_xmm_lane ctx x 0 (read addr 8);
      Context.set_xmm_lane ctx x 1 (read (Int64.add addr 8L) 8)
  | Vstore (m, x) ->
      let addr = effective_address ctx m in
      write addr 8 (Context.xmm_lane ctx x 0);
      write (Int64.add addr 8L) 8 (Context.xmm_lane ctx x 1)
  | Vop_rr (op, d, s) ->
      for lane = 0 to 1 do
        Context.set_xmm_lane ctx d lane
          (lane_op op (Context.xmm_lane ctx d lane) (Context.xmm_lane ctx s lane))
      done
  | Hlt | Ud2 -> raise (Addr_space.Fault { addr = pc; access = Exec }));
  !cost

open Elfie_isa
module Metrics = Elfie_obs.Metrics

type fault =
  | Page_fault of { addr : int64; access : Addr_space.access; pc : int64 }
  | Invalid_opcode of int64
  | Privileged of int64

let pp_fault fmt = function
  | Page_fault { addr; access; pc } ->
      let a =
        match access with
        | Addr_space.Read -> "read"
        | Write -> "write"
        | Exec -> "exec"
      in
      Format.fprintf fmt "page fault (%s) at 0x%Lx, pc=0x%Lx" a addr pc
  | Invalid_opcode pc -> Format.fprintf fmt "invalid opcode at pc=0x%Lx" pc
  | Privileged pc -> Format.fprintf fmt "privileged instruction at pc=0x%Lx" pc

type thread_state = Runnable | Exited of int | Faulted of fault

type thread = {
  tid : int;
  ctx : Context.t;
  mutable state : thread_state;
  mutable retired : int;
  mutable cycles : int;
  mutable counter_target : int option;
  mutable counter_fired : bool;
  mutable arm_retired : int;
  mutable arm_cycles : int;
  mutable mark_target : int option;
  mutable mark_retired : int option;
  mutable mark_cycles : int;
  mutable timer_left : int;
}

type scheduler =
  | Free of { seed : int64; quantum_min : int; quantum_max : int }
  | Recorded of (int * int) list

type callouts = {
  before : (int -> unit) option;
  read : (int -> int -> int -> unit) option;
  write : (int -> int -> int -> unit) option;
  branch : (int -> bool -> unit) option;
}

let no_callouts = { before = None; read = None; write = None; branch = None }

type hooks = {
  mutable instrument : (int64 -> Insn.t -> callouts) option;
  mutable on_marker : (int -> Insn.t -> unit) option;
}

type syscall_action = Run_syscall | Skip_syscall

type sched_state =
  | S_free of {
      rng : Elfie_util.Rng.t;
      quantum_min : int;
      quantum_max : int;
      (* A quantum interrupted by a [run ~max_ins] boundary resumes on
         the next call, so segmented driving (the multi-region logger)
         produces exactly the interleaving of one continuous run. *)
      mutable pending : (int * int) option;
    }
  | S_recorded of (int * int) list ref

(* A translated basic block: a straight-line run of decoded instructions
   ending at the first branch/call/syscall/marker (or the translation
   window). Translation pays fetch, decode, static cost classification
   and micro-op specialisation once per block instead of once per
   instruction. [bb_uops] holds each instruction compiled to a closure
   with operands pre-resolved (register indices, addressing mode) —
   with the call-outs its instrumentation asked for, if any (see
   {!instrument_slot}). A block runs either whole, as its mega-op in
   the chain loop, or one [bb_uops] slot at a time in the step loop. *)
type bb = {
  bb_pc : int64 array;  (* pc of each instruction *)
  bb_ins : Insn.t array;
  bb_next : int64 array;  (* pc just past each instruction *)
  bb_cost : int array;  (* static per-class cost (Timing.ins_cost) *)
  bb_prefix : int array;  (* length n+1; prefix.(i) = sum of bb_cost.(<i) *)
  bb_uops : (t -> thread -> unit) array;
  bb_ends_block : bool;  (* last instruction is a branch/call/syscall *)
  (* The last instruction moves RIP itself (a branch, call, syscall,
     marker or trap: see [terminates_block]); every other instruction
     falls through. *)
  bb_term : bool;
  (* The terminator is a plain branch/call/ret (no syscall, marker or
     trap, no translation-window cut), so the chain may run the block. *)
  bb_chainable : bool;
  (* --- superblock tier -------------------------------------------------
     A block whose terminator is a direct branch/call knows its static
     successor pcs; the chain executor links the translations together
     so predicted edges hop block-to-block without touching the
     dispatch loop. *)
  bb_writes_mem : bool;
      (* some instruction may write memory (see [may_write_mem]): only
         such a block can dirty a code page mid-block, so only such a
         block needs the per-instruction generation re-check. *)
  bb_succ_taken : int64;  (* direct taken-edge target pc, or -1L *)
  bb_succ_fall : int64;  (* fall-through pc of a [Jcc] tail, or -1L *)
  bb_mega : t -> thread -> unit;
      (* the whole block as ONE composed closure (straight-line calls,
         no per-instruction dispatch, SMC re-checks only after
         store-capable slots): the chain executor's hop body. In-block
         dead ALU flag results are elided and a compare+Jcc tail is
         fused with eager flag materialisation, so it is exact for any
         whole-block run; slots with call-outs keep their exact
         micro-ops. Only valid for full-block runs: a fault
         records its slot in [t.mega_idx], a mid-block exit raises
         {!Break_after}. *)
  mutable bb_links : bb array;
      (* [||] until {!resolve_links} runs; then [| fall; taken |]
         successor translations ([dummy_bb] for unresolvable edges),
         indexed by the direction the terminator recorded in [t.took] —
         the hop transition is an array load, not a RIP compare. *)
}

(* Live-counter block for the stats snapshot kept per machine. *)
and core_stats = {
  mutable st_memo_hits : int;
  mutable st_memo_misses : int;
  mutable st_sb_built : int;
  mutable st_sb_broken : int;
  mutable st_x_indirect : int;
  mutable st_x_fuel : int;
  mutable st_x_fault : int;
  mutable st_x_inval : int;
  mutable st_x_stop : int;
  mutable st_ret_chained : int;
  mutable st_ret_stepped : int;
}

and t = {
  mem : Addr_space.t;
  mutable thread_arr : thread array;
  hooks : hooks;
  (* The native hardware model; [None] on a simulator's machine, which
     charges only the per-class costs in [bb_cost]. *)
  timing : Timing.t option;
  sched : sched_state;
  mutable syscall_handler : t -> int -> unit;
  mutable syscall_filter : (t -> int -> syscall_action) option;
  mutable stop_requested : bool;
  mutable ring0 : int;
  mutable retired_total : int;
  mutable record_schedule : bool;
  mutable schedule_rev : (int * int) list;
  mutable schedule_cut : bool;
  block_cache : (int64, bb) Hashtbl.t;
  mutable decode_generation : int;
  (* The instrumentation callback the cached translations were built
     with: [t.hooks.instrument] when the cache was last flushed. *)
  mutable decode_instr : (int64 -> Insn.t -> callouts) option;
  mutable timer : (int * int * Elfie_util.Rng.t) option;
  (* Dynamic (cache, branch, pause) cycle cost accumulated by micro-ops
     across one chain run or single instruction; static class
     costs come from [bb_cost]/[bb_prefix]. Zeroed at the start and
     flushed into the thread's cycle count at the end. Not reentrant —
     syscall handlers run inside a micro-op but never run the machine. *)
  mutable dyn_cost : int;
  (* Direct-mapped front memo for the block cache: hot loops (whose
     bodies typically span a handful of blocks) fetch translations with
     an unboxed int64 compare instead of an int64-keyed hash probe.
     [block_memo_pc.(slot) = -1L] marks an empty slot. *)
  block_memo_pc : int64 array;
  block_memo : bb array;
  mutable block_observer :
    (tid:int -> pcs:int64 array -> n:int -> ends_block:bool -> unit) option;
  (* Slot index a mega-op was executing when it raised: [Fault] leaves
     the faulting slot here, [Break_after] the count of completed slots. *)
  mutable mega_idx : int;
  (* Direction the last direct branch/call terminator resolved to
     (1 = taken edge, 0 = fall-through), recorded branchlessly by the
     terminator micro-ops. Valid right after a whole-block mega run of a
     directly-terminated block — exactly when the chain executor indexes
     [bb_links] with it. *)
  mutable took : int;
  (* [Addr_space.code_writes] sampled at mega-op entry; the composed
     post-store re-checks compare against it. *)
  mutable mega_cw : int;
  mutable live_links : int;  (* installed chain edges in this generation *)
  stats : core_stats;  (* monotone per-machine counters *)
  stats_flushed : core_stats;  (* snapshot at the last metrics flush *)
  (* [Addr_space.cow_copies t.mem] at the last metrics flush. *)
  mutable cow_flushed : int;
  (* When set, a firing warmup mark also requests a stop: [run] returns
     right after the mark instruction retires, leaving the machine
     warmed and snapshot-ready. *)
  mutable stop_on_mark : bool;
  (* When set, an instruction that faults also requests a stop. *)
  mutable stop_on_fault : bool;
}

(* RIP in its slot of the register bytes ({!Context.rip_slot}): a
   computed branch target is stored unboxed. *)
let[@inline] get_rip (ctx : Context.t) = Context.slot_get ctx.Context.gprs Context.rip_slot
let[@inline] set_rip (ctx : Context.t) v = Context.slot_set ctx.Context.gprs Context.rip_slot v

let block_memo_size = 64 (* power of two *)

(* Placeholder behind [block_memo_pc.(slot) = -1L] and behind
   unresolved/unresolvable chain links, never matching a pc. *)
let dummy_bb =
  {
    bb_pc = [||];
    bb_ins = [||];
    bb_next = [||];
    bb_cost = [||];
    bb_prefix = [| 0 |];
    bb_uops = [||];
    bb_ends_block = false;
    bb_term = false;
    bb_chainable = false;
    bb_writes_mem = false;
    bb_succ_taken = -1L;
    bb_succ_fall = -1L;
    bb_mega = (fun _ _ -> ());
    bb_links = [||];
  }

let fresh_stats () =
  {
    st_memo_hits = 0;
    st_memo_misses = 0;
    st_sb_built = 0;
    st_sb_broken = 0;
    st_x_indirect = 0;
    st_x_fuel = 0;
    st_x_fault = 0;
    st_x_inval = 0;
    st_x_stop = 0;
    st_ret_chained = 0;
    st_ret_stepped = 0;
  }

(* A machine with no threads, hooks or translations, which [create]
   and [fork] fill in. *)
let make mem timing sched =
  {
    mem;
    thread_arr = [||];
    hooks = { instrument = None; on_marker = None };
    timing;
    sched;
    syscall_handler = (fun _ _ -> failwith "Machine: no syscall handler installed");
    syscall_filter = None;
    stop_requested = false;
    ring0 = 0;
    retired_total = 0;
    record_schedule = false;
    schedule_rev = [];
    schedule_cut = false;
    block_cache = Hashtbl.create 1024;
    decode_generation = -1;
    decode_instr = None;
    timer = None;
    dyn_cost = 0;
    block_memo_pc = Array.make block_memo_size (-1L);
    block_memo = Array.make block_memo_size dummy_bb;
    block_observer = None;
    mega_idx = 0;
    mega_cw = 0;
    took = 0;
    live_links = 0;
    stats = fresh_stats ();
    stats_flushed = fresh_stats ();
    cow_flushed = 0;
    stop_on_mark = false;
    stop_on_fault = false;
  }

let create ?(native = true) scheduler =
  let sched =
    match scheduler with
    | Free { seed; quantum_min; quantum_max } ->
        S_free
          { rng = Elfie_util.Rng.create seed; quantum_min; quantum_max;
            pending = None }
    | Recorded slices -> S_recorded (ref slices)
  in
  make (Addr_space.create ())
    (if native then Some (Timing.create ()) else None)
    sched

let mem t = t.mem
let hooks t = t.hooks
let set_syscall_handler t h = t.syscall_handler <- h
let set_syscall_filter t f = t.syscall_filter <- Some f

let add_thread t ctx =
  let tid = Array.length t.thread_arr in
  let th =
    {
      tid;
      ctx;
      state = Runnable;
      retired = 0;
      cycles = 0;
      counter_target = None;
      counter_fired = false;
      arm_retired = 0;
      arm_cycles = 0;
      mark_target = None;
      mark_retired = None;
      mark_cycles = 0;
      timer_left = max_int;
    }
  in
  t.thread_arr <- Array.append t.thread_arr [| th |];
  (match t.timer with
  | Some (interval, _, rng) ->
      th.timer_left <- (interval / 2) + Elfie_util.Rng.int rng interval
  | None -> ());
  tid

let thread t tid =
  if tid < 0 || tid >= Array.length t.thread_arr then
    invalid_arg (Printf.sprintf "Machine.thread: bad tid %d" tid);
  t.thread_arr.(tid)

let threads t = Array.to_list t.thread_arr

let exit_thread t tid ~status =
  let th = thread t tid in
  if th.state = Runnable then th.state <- Exited status

let exit_all t ~status =
  Array.iter (fun th -> exit_thread t th.tid ~status) t.thread_arr

(* Counters are [int]s and never negative; no run reaches [max_int]
   (2^62 - 1) of them. So a bound past [max_int] is one no counter
   reaches, and a negative one is one every counter has already
   reached: saturating keeps every comparison with a counter as it is
   in [int64], where a bare [Int64.to_int] would wrap. *)
let count_of_int64 n =
  if Int64.compare n (Int64.of_int max_int) > 0 then max_int
  else if Int64.compare n 0L < 0 then 0
  else Int64.to_int n

let arm_counter t tid ~target =
  let th = thread t tid in
  th.counter_target <- Some (count_of_int64 target);
  th.arm_retired <- th.retired;
  th.arm_cycles <- th.cycles

let arm_mark t tid ~target =
  let th = thread t tid in
  th.mark_target <- Some (count_of_int64 target)

let set_timer t ~interval ~cycles ~seed =
  let rng = Elfie_util.Rng.create seed in
  t.timer <- Some (interval, cycles, rng);
  Array.iter
    (fun th -> th.timer_left <- (interval / 2) + Elfie_util.Rng.int rng interval)
    t.thread_arr

let request_stop t = t.stop_requested <- true
let stop_requested t = t.stop_requested

let charge_ring0 t tid ~instructions ~cycles =
  let th = thread t tid in
  th.cycles <- th.cycles + cycles;
  t.ring0 <- t.ring0 + instructions

let ring0_retired t = Int64.of_int t.ring0
let set_record_schedule t b = t.record_schedule <- b

let recorded_schedule t = List.rev t.schedule_rev
let cut_schedule t = t.schedule_cut <- true

let total_retired t = Int64.of_int t.retired_total

let elapsed_cycles t =
  Int64.of_int (Array.fold_left (fun acc th -> max acc th.cycles) 0 t.thread_arr)

let all_exited_cleanly t =
  Array.for_all (fun th -> th.state = Exited 0) t.thread_arr

(* --- Fetch with basic-block translation cache -------------------------- *)

let set_block_observer t f = t.block_observer <- f
let translated_blocks t = Hashtbl.length t.block_cache

type chain_stats = {
  memo_hits : int;
  memo_misses : int;
  superblocks_built : int;
  superblocks_broken : int;
  exits_indirect : int;
  exits_fuel : int;
  exits_fault : int;
  exits_invalidation : int;
  exits_stop : int;
  retired_chained : int;
  retired_stepped : int;
}

let chain_stats t =
  {
    memo_hits = t.stats.st_memo_hits;
    memo_misses = t.stats.st_memo_misses;
    superblocks_built = t.stats.st_sb_built;
    superblocks_broken = t.stats.st_sb_broken;
    exits_indirect = t.stats.st_x_indirect;
    exits_fuel = t.stats.st_x_fuel;
    exits_fault = t.stats.st_x_fault;
    exits_invalidation = t.stats.st_x_inval;
    exits_stop = t.stats.st_x_stop;
    retired_chained = t.stats.st_ret_chained;
    retired_stepped = t.stats.st_ret_stepped;
  }

(* Block-cache and superblock efficacy families. Counters are process
   monotone: each machine flushes only the delta since its last flush
   (end of every [run]), so concurrent machines in one process
   accumulate rather than clobber. *)
let m_memo_hits =
  Metrics.counter "elfie_core_block_memo_hits"
    ~help:"Translated-block fetches served by the direct-mapped memo"

let m_memo_misses =
  Metrics.counter "elfie_core_block_memo_misses"
    ~help:"Translated-block fetches that fell back to the hash probe"

let m_sb_built =
  Metrics.counter "elfie_core_superblocks_built"
    ~help:"Chain links installed between translated blocks"

let m_sb_broken =
  Metrics.counter "elfie_core_superblocks_broken"
    ~help:"Chain links discarded by translation-cache invalidation"

let m_chain_exits =
  Metrics.counter "elfie_core_chain_exits"
    ~help:"Chained runs broken back to dispatch, by reason"

let m_retired =
  Metrics.counter "elfie_core_retired_total"
    ~help:"User instructions retired, by execution tier"

(* Copy-on-write snapshot efficacy: captures/forks are bumped at the
   call site; CoW page privatisations flush as per-machine deltas with
   the other core counters. *)
let m_snap_captures =
  Metrics.counter "elfie_snapshot_captures_total"
    ~help:"Machine snapshots captured (address space frozen)"

let m_snap_forks =
  Metrics.counter "elfie_snapshot_forks_total"
    ~help:"Machines forked from a snapshot"

let m_snap_cow_pages =
  Metrics.counter "elfie_snapshot_cow_page_copies_total"
    ~help:"Pages privatised lazily by a write into frozen snapshot backing"

let flush_core_metrics t =
  let bump ?labels fam live flushed =
    if live > flushed then
      Metrics.inc ?labels ~by:(float_of_int (live - flushed)) fam
  in
  let s = t.stats and f = t.stats_flushed in
  bump m_memo_hits s.st_memo_hits f.st_memo_hits;
  bump m_memo_misses s.st_memo_misses f.st_memo_misses;
  bump m_sb_built s.st_sb_built f.st_sb_built;
  bump m_sb_broken s.st_sb_broken f.st_sb_broken;
  let reason r = bump ~labels:[ ("reason", r) ] m_chain_exits in
  reason "indirect" s.st_x_indirect f.st_x_indirect;
  reason "fuel" s.st_x_fuel f.st_x_fuel;
  reason "fault" s.st_x_fault f.st_x_fault;
  reason "invalidation" s.st_x_inval f.st_x_inval;
  reason "stop" s.st_x_stop f.st_x_stop;
  let tier r = bump ~labels:[ ("tier", r) ] m_retired in
  tier "chained" s.st_ret_chained f.st_ret_chained;
  tier "stepped" s.st_ret_stepped f.st_ret_stepped;
  f.st_memo_hits <- s.st_memo_hits;
  f.st_memo_misses <- s.st_memo_misses;
  f.st_sb_built <- s.st_sb_built;
  f.st_sb_broken <- s.st_sb_broken;
  f.st_x_indirect <- s.st_x_indirect;
  f.st_x_fuel <- s.st_x_fuel;
  f.st_x_fault <- s.st_x_fault;
  f.st_x_inval <- s.st_x_inval;
  f.st_x_stop <- s.st_x_stop;
  f.st_ret_chained <- s.st_ret_chained;
  f.st_ret_stepped <- s.st_ret_stepped;
  let cow = Addr_space.cow_copies t.mem in
  if cow > t.cow_flushed then begin
    Metrics.inc ~by:(float_of_int (cow - t.cow_flushed)) m_snap_cow_pages;
    t.cow_flushed <- cow
  end

(* --- Instruction semantics --------------------------------------------- *)

(* Every instruction runs through the micro-ops below, and the default
   (dev) build compiles each library [-opaque], so nothing is inlined
   across modules. An [int64] passed to or returned from another
   module's function, or from any closure, is boxed: a minor-heap
   allocation per instruction. So every [int64] of the hot path stays
   inside one micro-op body: registers move through the
   {!Context.slot_get}/{!Context.slot_set} primitives, memory through the
   {!Addr_space.read_page}/{!Addr_space.write_page} probes and the
   stdlib's byte accessors, the timing model gets a {!Cache.key}
   immediate, and the operation, addressing mode and condition are
   chosen when the micro-op is built, with the arithmetic in the
   [\[@inline\]] helpers of this module. Call-outs take immediates too
   ({!Cache.key}s, [taken]); only the page-crossing and fault paths
   box. *)

let[@inline] set_zf_sf (flags : Reg.flags) r =
  flags.zf <- r = 0L;
  flags.sf <- r < 0L

(* [Int64.unsigned_compare a b < 0], as one inline comparison. *)
let[@inline] ult a b = Int64.add a Int64.min_int < Int64.add b Int64.min_int

(* ALU flag semantics: the flags of [r = a op b], one function per
   kind of operation. They return unit: the micro-op computes [r] and
   keeps it, because an [int64] result dropped by [ignore] is boxed
   first. *)
let[@inline] add_flags (flags : Reg.flags) a b r =
  flags.cf <- ult r a;
  flags.ovf <- (a >= 0L && b >= 0L && r < 0L) || (a < 0L && b < 0L && r >= 0L);
  set_zf_sf flags r

let[@inline] sub_flags (flags : Reg.flags) a b r =
  flags.cf <- ult a b;
  flags.ovf <- (a >= 0L && b < 0L && r < 0L) || (a < 0L && b >= 0L && r >= 0L);
  set_zf_sf flags r

(* And, Or, Xor, Test and Imul clear CF and OF. *)
let[@inline] logic_flags (flags : Reg.flags) r =
  flags.cf <- false;
  flags.ovf <- false;
  set_zf_sf flags r

(* A shift by [n > 0]: [out] is the last bit shifted out. *)
let[@inline] shift_flags (flags : Reg.flags) r out =
  flags.cf <- Int64.logand out 1L = 1L;
  flags.ovf <- false;
  set_zf_sf flags r

let[@inline] lane_add a b =
  Int64.bits_of_float (Int64.float_of_bits a +. Int64.float_of_bits b)

let[@inline] lane_sub a b =
  Int64.bits_of_float (Int64.float_of_bits a -. Int64.float_of_bits b)

let[@inline] lane_mul a b =
  Int64.bits_of_float (Int64.float_of_bits a *. Int64.float_of_bits b)

(* --- Micro-op compilation ---------------------------------------------- *)

let rsp = Context.slot Reg.RSP
let rax = Context.slot Reg.RAX

(* Addressing mode resolved at translation time: base and index slot
   offsets (a missing one reads {!Context.zero_slot}), the scale as a
   shift, and the displacement. *)
let addr_mode (m : Insn.mem) =
  let slot = function Some r -> Context.slot r | None -> Context.zero_slot in
  let sh =
    match m.scale with
    | 1 -> 0
    | 2 -> 1
    | 4 -> 2
    | 8 -> 3
    | s -> invalid_arg (Printf.sprintf "Machine: scale %d" s)
  in
  (slot m.base, slot m.index, sh, m.disp)

let[@inline] ea g bo xo sh disp =
  Int64.add
    (Int64.add (Context.slot_get g bo)
       (Int64.shift_left (Context.slot_get g xo) sh))
    disp

(* An ALU source: a register is its slot plus 0, an immediate the zero
   slot plus the immediate. *)
let[@inline] operand g so k = Int64.add (Context.slot_get g so) k

let cond_fn = function
  | Insn.Eq -> fun (f : Reg.flags) -> f.zf
  | Ne -> fun (f : Reg.flags) -> not f.zf
  | Lt -> fun (f : Reg.flags) -> f.sf <> f.ovf
  | Ge -> fun (f : Reg.flags) -> f.sf = f.ovf
  | Le -> fun (f : Reg.flags) -> f.zf || f.sf <> f.ovf
  | Gt -> fun (f : Reg.flags) -> (not f.zf) && f.sf = f.ovf
  | Ult -> fun (f : Reg.flags) -> f.cf
  | Uge -> fun (f : Reg.flags) -> not f.cf

let uop_nop : t -> thread -> unit = fun _t _th -> ()

(* [Cache.key addr], computed inline: a call would box [addr]. *)
let[@inline] key addr = Int64.to_int (Int64.shift_right_logical addr 1)

(* Memory and branch steps shared by the micro-ops, in the order every
   form follows: the cache or predictor is charged, then the access
   happens or RIP moves. [mem_cost] returns the access's cache cost for
   the caller to add to [dyn_cost] once nothing else in the instruction
   can fault. A machine without the native model charges neither. *)
let[@inline] mem_cost t addr =
  match t.timing with Some tm -> Timing.mem_cost tm (key addr) | None -> 0

let[@inline] branch_cost t pc taken =
  match t.timing with Some tm -> Timing.branch_cost tm ~pc ~taken | None -> 0

(* The memory call-outs of a form with several accesses: [rd] and [wr]
   fire in the micro-op body, before each access (see {!compile_ins});
   [no_access] stands for both in a plain translation and inlines away. *)
let[@inline] no_access (_ : int) (_ : int) (_ : int) = ()
let[@inline] fire f tid addr w1 = f tid (key addr) (key (Int64.add addr w1))

let page_mask = Addr_space.page_size - 1
let[@inline] page_off addr = Int64.to_int addr land page_mask

(* The page bytes holding the [width] bytes at [addr], or [Bytes.empty]
   when the access crosses a page or finds no page: the caller then
   takes [Addr_space.read]/[write], the general path that reports the
   exact fault. *)
let[@inline] read_page t addr width =
  if page_off addr <= Addr_space.page_size - width then
    Addr_space.read_page t.mem
      (Int64.to_int (Int64.shift_right_logical addr Addr_space.page_bits))
  else Bytes.empty

let[@inline] write_page t addr width =
  if page_off addr <= Addr_space.page_size - width then
    Addr_space.write_page t.mem
      (Int64.to_int (Int64.shift_right_logical addr Addr_space.page_bits))
  else Bytes.empty

let[@inline] rd64 t addr =
  let d = read_page t addr 8 in
  if Bytes.length d = 0 then Addr_space.read t.mem addr 8
  else Bytes.get_int64_le d (page_off addr)

let[@inline] rd32 t addr =
  let d = read_page t addr 4 in
  if Bytes.length d = 0 then Addr_space.read t.mem addr 4
  else
    Int64.logand
      (Int64.of_int32 (Bytes.get_int32_le d (page_off addr)))
      0xffff_ffffL

let[@inline] rd16 t addr =
  let d = read_page t addr 2 in
  if Bytes.length d = 0 then Addr_space.read t.mem addr 2
  else Int64.of_int (Bytes.get_uint16_le d (page_off addr))

let[@inline] rd8 t addr =
  let d = read_page t addr 1 in
  if Bytes.length d = 0 then Addr_space.read t.mem addr 1
  else Int64.of_int (Bytes.get_uint8 d (page_off addr))

let[@inline] wr64 t addr v =
  let d = write_page t addr 8 in
  if Bytes.length d = 0 then Addr_space.write t.mem addr 8 v
  else Bytes.set_int64_le d (page_off addr) v

let[@inline] wr32 t addr v =
  let d = write_page t addr 4 in
  if Bytes.length d = 0 then Addr_space.write t.mem addr 4 v
  else Bytes.set_int32_le d (page_off addr) (Int64.to_int32 v)

let[@inline] wr16 t addr v =
  let d = write_page t addr 2 in
  if Bytes.length d = 0 then Addr_space.write t.mem addr 2 v
  else Bytes.set_uint16_le d (page_off addr) (Int64.to_int v land 0xffff)

let[@inline] wr8 t addr v =
  let d = write_page t addr 1 in
  if Bytes.length d = 0 then Addr_space.write t.mem addr 1 v
  else Bytes.set_uint8 d (page_off addr) (Int64.to_int v land 0xff)

let[@inline] load64 t addr =
  let c = mem_cost t addr in
  let v = rd64 t addr in
  t.dyn_cost <- t.dyn_cost + c;
  v

let[@inline] store64 t addr v =
  let c = mem_cost t addr in
  wr64 t addr v;
  t.dyn_cost <- t.dyn_cost + c

(* A faulting push leaves RSP decremented. *)
let[@inline] push64 t th v =
  let g = th.ctx.Context.gprs in
  let sp = Int64.sub (Context.slot_get g rsp) 8L in
  Context.slot_set g rsp sp;
  store64 t sp v

let[@inline] pop64 t th =
  let g = th.ctx.Context.gprs in
  let sp = Context.slot_get g rsp in
  let v = load64 t sp in
  Context.slot_set g rsp (Int64.add sp 8L);
  v

(* Predictor cost of a control transfer at [pc]; the caller moves RIP
   afterwards. *)
let[@inline] note_branch t pc taken =
  t.dyn_cost <- t.dyn_cost + branch_cost t pc taken

(* The end of a fused compare-and-branch: predictor cost, edge index
   and RIP. *)
let[@inline] jcc_taken t (ctx : Context.t) pc tgts taken =
  t.dyn_cost <- t.dyn_cost + branch_cost t pc taken;
  let ti = Bool.to_int taken in
  t.took <- ti;
  set_rip ctx (Array.unsafe_get tgts ti)

(* The ALU micro-op [d <- d op (so + k)] (see {!operand}); with
   [flags_dead] it skips the flag stores, and [Cmp]/[Test] do
   nothing. *)
let compile_alu ~flags_dead (op : Insn.alu) d so k : t -> thread -> unit =
  match (op, flags_dead) with
  | Add, false ->
      fun _t th ->
        let ctx = th.ctx in
        let g = ctx.Context.gprs in
        let a = Context.slot_get g d and b = operand g so k in
        let r = Int64.add a b in
        add_flags ctx.Context.flags a b r;
        Context.slot_set g d r
  | Sub, false ->
      fun _t th ->
        let ctx = th.ctx in
        let g = ctx.Context.gprs in
        let a = Context.slot_get g d and b = operand g so k in
        let r = Int64.sub a b in
        sub_flags ctx.Context.flags a b r;
        Context.slot_set g d r
  | Cmp, false ->
      fun _t th ->
        let ctx = th.ctx in
        let g = ctx.Context.gprs in
        let a = Context.slot_get g d and b = operand g so k in
        sub_flags ctx.Context.flags a b (Int64.sub a b)
  | And, false ->
      fun _t th ->
        let ctx = th.ctx in
        let g = ctx.Context.gprs in
        let r = Int64.logand (Context.slot_get g d) (operand g so k) in
        logic_flags ctx.Context.flags r;
        Context.slot_set g d r
  | Test, false ->
      fun _t th ->
        let ctx = th.ctx in
        let g = ctx.Context.gprs in
        logic_flags ctx.Context.flags
          (Int64.logand (Context.slot_get g d) (operand g so k))
  | Or, false ->
      fun _t th ->
        let ctx = th.ctx in
        let g = ctx.Context.gprs in
        let r = Int64.logor (Context.slot_get g d) (operand g so k) in
        logic_flags ctx.Context.flags r;
        Context.slot_set g d r
  | Xor, false ->
      fun _t th ->
        let ctx = th.ctx in
        let g = ctx.Context.gprs in
        let r = Int64.logxor (Context.slot_get g d) (operand g so k) in
        logic_flags ctx.Context.flags r;
        Context.slot_set g d r
  | Imul, false ->
      fun _t th ->
        let ctx = th.ctx in
        let g = ctx.Context.gprs in
        let r = Int64.mul (Context.slot_get g d) (operand g so k) in
        logic_flags ctx.Context.flags r;
        Context.slot_set g d r
  | (Cmp | Test), true -> uop_nop
  | Add, true ->
      fun _t th ->
        let g = th.ctx.Context.gprs in
        Context.slot_set g d (Int64.add (Context.slot_get g d) (operand g so k))
  | Sub, true ->
      fun _t th ->
        let g = th.ctx.Context.gprs in
        Context.slot_set g d (Int64.sub (Context.slot_get g d) (operand g so k))
  | And, true ->
      fun _t th ->
        let g = th.ctx.Context.gprs in
        Context.slot_set g d (Int64.logand (Context.slot_get g d) (operand g so k))
  | Or, true ->
      fun _t th ->
        let g = th.ctx.Context.gprs in
        Context.slot_set g d (Int64.logor (Context.slot_get g d) (operand g so k))
  | Xor, true ->
      fun _t th ->
        let g = th.ctx.Context.gprs in
        Context.slot_set g d (Int64.logxor (Context.slot_get g d) (operand g so k))
  | Imul, true ->
      fun _t th ->
        let g = th.ctx.Context.gprs in
        Context.slot_set g d (Int64.mul (Context.slot_get g d) (operand g so k))

(* [Shift_ri] by [n]; a shift by 0 changes nothing, flags included. *)
let compile_shift ~flags_dead (op : Insn.shift) d n : t -> thread -> unit =
  if n = 0 then uop_nop
  else
    match (op, flags_dead) with
    | Shl, false ->
        fun _t th ->
          let ctx = th.ctx in
          let g = ctx.Context.gprs in
          let v = Context.slot_get g d in
          let r = Int64.shift_left v n in
          shift_flags ctx.Context.flags r (Int64.shift_right_logical v (64 - n));
          Context.slot_set g d r
    | Shr, false ->
        fun _t th ->
          let ctx = th.ctx in
          let g = ctx.Context.gprs in
          let v = Context.slot_get g d in
          let r = Int64.shift_right_logical v n in
          shift_flags ctx.Context.flags r (Int64.shift_right_logical v (n - 1));
          Context.slot_set g d r
    | Sar, false ->
        fun _t th ->
          let ctx = th.ctx in
          let g = ctx.Context.gprs in
          let v = Context.slot_get g d in
          let r = Int64.shift_right v n in
          shift_flags ctx.Context.flags r (Int64.shift_right_logical v (n - 1));
          Context.slot_set g d r
    | Shl, true ->
        fun _t th ->
          let g = th.ctx.Context.gprs in
          Context.slot_set g d (Int64.shift_left (Context.slot_get g d) n)
    | Shr, true ->
        fun _t th ->
          let g = th.ctx.Context.gprs in
          Context.slot_set g d (Int64.shift_right_logical (Context.slot_get g d) n)
    | Sar, true ->
        fun _t th ->
          let g = th.ctx.Context.gprs in
          Context.slot_set g d (Int64.shift_right (Context.slot_get g d) n)

(* The forms with two accesses, each access's call-out ([rd], [wr];
   [no_access] in a plain translation) just before it. *)
let[@inline] xchg rd wr t th bo xo sh disp r =
  let g = th.ctx.Context.gprs in
  let addr = ea g bo xo sh disp in
  fire rd th.tid addr 7L;
  let c = mem_cost t addr in
  let old = rd64 t addr in
  fire wr th.tid addr 7L;
  let c = c + mem_cost t addr in
  wr64 t addr (Context.slot_get g r);
  t.dyn_cost <- t.dyn_cost + c;
  Context.slot_set g r old

let[@inline] cmpxchg rd wr t th bo xo sh disp r =
  let ctx = th.ctx in
  let g = ctx.Context.gprs in
  let addr = ea g bo xo sh disp in
  fire rd th.tid addr 7L;
  let c = mem_cost t addr in
  let old = rd64 t addr in
  if old = Context.slot_get g rax then begin
    fire wr th.tid addr 7L;
    let c = c + mem_cost t addr in
    wr64 t addr (Context.slot_get g r);
    t.dyn_cost <- t.dyn_cost + c;
    ctx.Context.flags.zf <- true
  end
  else begin
    t.dyn_cost <- t.dyn_cost + c;
    Context.slot_set g rax old;
    ctx.Context.flags.zf <- false
  end

let[@inline] vload rd t th bo xo sh disp x =
  let ctx = th.ctx in
  let addr = ea ctx.Context.gprs bo xo sh disp in
  fire rd th.tid addr 7L;
  let c = mem_cost t addr in
  let v = rd64 t addr in
  Bytes.set_int64_le ctx.Context.xmm x v;
  let addr = Int64.add addr 8L in
  fire rd th.tid addr 7L;
  let c = c + mem_cost t addr in
  let v = rd64 t addr in
  Bytes.set_int64_le ctx.Context.xmm (x + 8) v;
  t.dyn_cost <- t.dyn_cost + c

let[@inline] vstore wr t th bo xo sh disp x =
  let ctx = th.ctx in
  let addr = ea ctx.Context.gprs bo xo sh disp in
  fire wr th.tid addr 7L;
  let c = mem_cost t addr in
  wr64 t addr (Bytes.get_int64_le ctx.Context.xmm x);
  let addr = Int64.add addr 8L in
  fire wr th.tid addr 7L;
  let c = c + mem_cost t addr in
  wr64 t addr (Bytes.get_int64_le ctx.Context.xmm (x + 8));
  t.dyn_cost <- t.dyn_cost + c

(* Compile one instruction to its micro-op — the one definition of
   VX86 semantics. Both execution paths run these closures: the chain
   tier's composed blocks and the single-instruction step.
   Micro-ops fire the marker hook themselves; an instrumented
   translation wraps them in their call-outs ({!instrument_slot}).

   Cost contract: the static class cost is charged by the caller
   (through [bb_cost] or [bb_prefix]); dynamic cost (cache misses,
   branch prediction, [Pause]) is added to [t.dyn_cost] only after the
   instruction's last possible fault, so a faulting instruction charges
   no cycles on any path. Cache and predictor state are touched in
   program order, and partial effects of a faulting instruction stay
   architectural (a faulting push leaves RSP decremented; a [Vload]
   faulting on its second lane leaves the first written).

   [pc] is the instruction's address and [next] the address just past
   it — both translation constants, so a branch's relative target is
   resolved here (target = next + rel). A micro-op does NOT expect RIP
   to be advanced beforehand: execution paths skip that per-instruction
   store and repair RIP on exit. The forms that observe RIP bake in
   [next] instead: every branch sets RIP unconditionally (a non-taken
   [Jcc] writes [next]), calls push [next], and syscalls and markers
   set RIP to [next] before they call out, as {!set_syscall_handler}
   promises.

   [access] holds the read and write call-outs of an instrumented
   [Xchg], [Cmpxchg], [Vload] or [Vstore]: those forms access memory
   twice, so the call-outs fire in the body, before each access (see
   {!instrument_slot} for the other forms).

   [flags_dead] comes from the chain tier's liveness pass: when true,
   every flag this instruction would write is overwritten before any
   read, fault point or block exit, so ALU/shift/neg forms skip flag
   materialisation ([Cmp]/[Test] become complete no-ops). Exact
   semantics ([flags_dead = false]) remain the fallback everywhere. *)
let compile_ins ~pc ~next ?(flags_dead = false) ?access (ins : Insn.t) :
    t -> thread -> unit =
  match ins with
  | Insn.Alu_rr (op, d, s) ->
      compile_alu ~flags_dead op (Context.slot d) (Context.slot s) 0L
  | Alu_ri (op, d, imm) ->
      compile_alu ~flags_dead op (Context.slot d) Context.zero_slot imm
  | Shift_ri (op, d, n) -> compile_shift ~flags_dead op (Context.slot d) n
  | Neg d ->
      let d = Context.slot d in
      if flags_dead then fun _t th ->
        let g = th.ctx.Context.gprs in
        Context.slot_set g d (Int64.neg (Context.slot_get g d))
      else fun _t th ->
        let ctx = th.ctx in
        let g = ctx.Context.gprs in
        let a = Context.slot_get g d in
        let r = Int64.neg a in
        sub_flags ctx.Context.flags 0L a r;
        Context.slot_set g d r
  | Jmp rel ->
      let target = Int64.add next (Int64.of_int rel) in
      fun t th ->
        note_branch t pc true;
        t.took <- 1;
        set_rip th.ctx target
  | Jcc (c, rel) ->
      let cond = cond_fn c in
      let target = Int64.add next (Int64.of_int rel) in
      (* Both successor RIPs pre-boxed in a pair indexed by the branch
         direction: a data-dependent guest branch becomes a host array
         load instead of a (frequently mispredicted) host branch. *)
      let tgts = [| next; target |] in
      fun t th ->
        let ctx = th.ctx in
        let taken = cond ctx.Context.flags in
        note_branch t pc taken;
        let ti = Bool.to_int taken in
        t.took <- ti;
        set_rip ctx (Array.unsafe_get tgts ti)
  | Jmp_r r ->
      let r = Context.slot r in
      fun t th ->
        let ctx = th.ctx in
        let target = Context.slot_get ctx.Context.gprs r in
        note_branch t pc true;
        set_rip ctx target
  | Jmp_m m ->
      let bo, xo, sh, disp = addr_mode m in
      fun t th ->
        let ctx = th.ctx in
        let target = load64 t (ea ctx.Context.gprs bo xo sh disp) in
        note_branch t pc true;
        set_rip ctx target
  | Call rel ->
      let target = Int64.add next (Int64.of_int rel) in
      fun t th ->
        push64 t th next;
        note_branch t pc true;
        t.took <- 1;
        set_rip th.ctx target
  | Call_r r ->
      let r = Context.slot r in
      fun t th ->
        push64 t th next;
        (* Target read after the push: a call through RSP sees the
           decremented stack pointer. *)
        let ctx = th.ctx in
        let target = Context.slot_get ctx.Context.gprs r in
        note_branch t pc true;
        set_rip ctx target
  | Ret ->
      fun t th ->
        let target = pop64 t th in
        note_branch t pc true;
        set_rip th.ctx target
  | Mov_ri (r, v) ->
      let r = Context.slot r in
      fun _t th -> Context.slot_set th.ctx.Context.gprs r v
  | Mov_rr (d, s) ->
      let d = Context.slot d and s = Context.slot s in
      fun _t th ->
        let g = th.ctx.Context.gprs in
        Context.slot_set g d (Context.slot_get g s)
  | Load (w, r, m) -> (
      let bo, xo, sh, disp = addr_mode m and r = Context.slot r in
      match w with
      | Insn.W64 ->
          fun t th ->
            let g = th.ctx.Context.gprs in
            Context.slot_set g r (load64 t (ea g bo xo sh disp))
      | W32 ->
          fun t th ->
            let g = th.ctx.Context.gprs in
            let addr = ea g bo xo sh disp in
            let c = mem_cost t addr in
            let v = rd32 t addr in
            t.dyn_cost <- t.dyn_cost + c;
            Context.slot_set g r v
      | W16 ->
          fun t th ->
            let g = th.ctx.Context.gprs in
            let addr = ea g bo xo sh disp in
            let c = mem_cost t addr in
            let v = rd16 t addr in
            t.dyn_cost <- t.dyn_cost + c;
            Context.slot_set g r v
      | W8 ->
          fun t th ->
            let g = th.ctx.Context.gprs in
            let addr = ea g bo xo sh disp in
            let c = mem_cost t addr in
            let v = rd8 t addr in
            t.dyn_cost <- t.dyn_cost + c;
            Context.slot_set g r v)
  | Store (w, m, r) -> (
      let bo, xo, sh, disp = addr_mode m and r = Context.slot r in
      match w with
      | Insn.W64 ->
          fun t th ->
            let g = th.ctx.Context.gprs in
            store64 t (ea g bo xo sh disp) (Context.slot_get g r)
      | W32 ->
          fun t th ->
            let g = th.ctx.Context.gprs in
            let addr = ea g bo xo sh disp in
            let c = mem_cost t addr in
            wr32 t addr (Context.slot_get g r);
            t.dyn_cost <- t.dyn_cost + c
      | W16 ->
          fun t th ->
            let g = th.ctx.Context.gprs in
            let addr = ea g bo xo sh disp in
            let c = mem_cost t addr in
            wr16 t addr (Context.slot_get g r);
            t.dyn_cost <- t.dyn_cost + c
      | W8 ->
          fun t th ->
            let g = th.ctx.Context.gprs in
            let addr = ea g bo xo sh disp in
            let c = mem_cost t addr in
            wr8 t addr (Context.slot_get g r);
            t.dyn_cost <- t.dyn_cost + c)
  | Lea (r, m) ->
      let bo, xo, sh, disp = addr_mode m and r = Context.slot r in
      fun _t th ->
        let g = th.ctx.Context.gprs in
        Context.slot_set g r (ea g bo xo sh disp)
  | Push r ->
      let r = Context.slot r in
      fun t th -> push64 t th (Context.slot_get th.ctx.Context.gprs r)
  | Pop r ->
      let r = Context.slot r in
      fun t th ->
        let v = pop64 t th in
        Context.slot_set th.ctx.Context.gprs r v
  | Pushf -> fun t th -> push64 t th (Reg.flags_to_word th.ctx.Context.flags)
  | Popf ->
      fun t th ->
        let fl = Reg.flags_of_word (pop64 t th) in
        let flags = th.ctx.Context.flags in
        flags.zf <- fl.zf;
        flags.sf <- fl.sf;
        flags.cf <- fl.cf;
        flags.ovf <- fl.ovf
  | Xchg (r, m) -> (
      let bo, xo, sh, disp = addr_mode m and r = Context.slot r in
      match access with
      | None -> fun t th -> xchg no_access no_access t th bo xo sh disp r
      | Some (rd, wr) -> fun t th -> xchg rd wr t th bo xo sh disp r)
  | Cmpxchg (m, r) -> (
      let bo, xo, sh, disp = addr_mode m and r = Context.slot r in
      match access with
      | None -> fun t th -> cmpxchg no_access no_access t th bo xo sh disp r
      | Some (rd, wr) -> fun t th -> cmpxchg rd wr t th bo xo sh disp r)
  | Vload (x, m) -> (
      let bo, xo, sh, disp = addr_mode m and x = x lsl 4 in
      match access with
      | None -> fun t th -> vload no_access t th bo xo sh disp x
      | Some (rd, _) -> fun t th -> vload rd t th bo xo sh disp x)
  | Vstore (m, x) -> (
      let bo, xo, sh, disp = addr_mode m and x = x lsl 4 in
      match access with
      | None -> fun t th -> vstore no_access t th bo xo sh disp x
      | Some (_, wr) -> fun t th -> vstore wr t th bo xo sh disp x)
  | Vop_rr (op, d, s) -> (
      (* Two 64-bit float lanes; lane 0 is written before lane 1 is
         read, as the lanes are independent. *)
      let d = d lsl 4 and s = s lsl 4 in
      match op with
      | Insn.Vadd ->
          fun _t th ->
            let x = th.ctx.Context.xmm in
            Bytes.set_int64_le x d
              (lane_add (Bytes.get_int64_le x d) (Bytes.get_int64_le x s));
            Bytes.set_int64_le x (d + 8)
              (lane_add (Bytes.get_int64_le x (d + 8)) (Bytes.get_int64_le x (s + 8)))
      | Vsub ->
          fun _t th ->
            let x = th.ctx.Context.xmm in
            Bytes.set_int64_le x d
              (lane_sub (Bytes.get_int64_le x d) (Bytes.get_int64_le x s));
            Bytes.set_int64_le x (d + 8)
              (lane_sub (Bytes.get_int64_le x (d + 8)) (Bytes.get_int64_le x (s + 8)))
      | Vmul ->
          fun _t th ->
            let x = th.ctx.Context.xmm in
            Bytes.set_int64_le x d
              (lane_mul (Bytes.get_int64_le x d) (Bytes.get_int64_le x s));
            Bytes.set_int64_le x (d + 8)
              (lane_mul (Bytes.get_int64_le x (d + 8)) (Bytes.get_int64_le x (s + 8))))
  | Ldctx r ->
      let r = Context.slot r in
      fun t th ->
        let ctx = th.ctx in
        Context.xrstor ctx
          (Addr_space.read_bytes t.mem
             (Context.slot_get ctx.Context.gprs r)
             Context.xsave_size)
  | Stctx r ->
      let r = Context.slot r in
      fun t th ->
        let ctx = th.ctx in
        Addr_space.write_bytes t.mem
          (Context.slot_get ctx.Context.gprs r)
          (Context.xsave ctx)
  | Wrfsbase r ->
      let r = Context.slot r in
      fun _t th ->
        let ctx = th.ctx in
        ctx.Context.fs_base <- Context.slot_get ctx.Context.gprs r
  | Wrgsbase r ->
      let r = Context.slot r in
      fun _t th ->
        let ctx = th.ctx in
        ctx.Context.gs_base <- Context.slot_get ctx.Context.gprs r
  | Rdfsbase r ->
      let r = Context.slot r in
      fun _t th ->
        let ctx = th.ctx in
        Context.slot_set ctx.Context.gprs r ctx.Context.fs_base
  | Rdgsbase r ->
      let r = Context.slot r in
      fun _t th ->
        let ctx = th.ctx in
        Context.slot_set ctx.Context.gprs r ctx.Context.gs_base
  | Syscall ->
      fun t th ->
        set_rip th.ctx next;
        let action =
          match t.syscall_filter with
          | Some f -> f t th.tid
          | None -> Run_syscall
        in
        (match action with
        | Run_syscall -> t.syscall_handler t th.tid
        | Skip_syscall -> ())
  | Cpuid ->
      fun t th ->
        let ctx = th.ctx in
        set_rip ctx next;
        (match t.hooks.on_marker with Some f -> f th.tid ins | None -> ());
        (* Vendor string "VX86" in RBX; leaves a recognisable marker. *)
        Context.set ctx RAX 1L;
        Context.set ctx RBX 0x36385856L;
        Context.set ctx RCX 0L;
        Context.set ctx RDX 0L
  | Ssc_marker _ | Magic _ -> (
      fun t th ->
        set_rip th.ctx next;
        match t.hooks.on_marker with Some f -> f th.tid ins | None -> ())
  | Nop -> uop_nop
  | Pause -> fun t _th -> t.dyn_cost <- t.dyn_cost + 10
  | Hlt | Ud2 ->
      (* [record_fault] turns this into [Privileged]/[Invalid_opcode]. *)
      let fault = Addr_space.Fault { addr = pc; access = Exec } in
      fun _t _th -> raise fault

(* --- Flag liveness ------------------------------------------------------ *)

(* How an instruction interacts with the four materialised flags
   (ZF/SF/CF/OVF), as seen by the backward liveness pass.

   [F_observe] is deliberately broad: it covers true readers ([Jcc],
   [Pushf]), every instruction that can fault or call out (memory forms,
   syscalls, markers, traps) and, conservatively, every other form not
   listed. Treating a potential fault point as a reader forces all
   earlier flag writes to materialise, which makes the flags
   architecturally exact at every fault — so elision never needs
   fault-time re-materialisation machinery: exactness holds by
   construction. *)
type flag_class = F_kill | F_neutral | F_observe

let flag_class (ins : Insn.t) =
  match ins with
  | Insn.Alu_rr _ | Alu_ri _ | Neg _ -> F_kill
  | Shift_ri (_, _, n) -> if n > 0 then F_kill else F_neutral
  | Mov_ri _ | Mov_rr _ | Lea _ | Nop | Pause | Jmp _ | Jmp_r _ -> F_neutral
  | _ -> F_observe

(* Conservative may-write-memory predicate: listed forms are provably
   store-free, anything else (stores, pushes, calls, [Stctx], and the
   syscall and marker forms whose callbacks may write) is assumed to
   write. Only a writing instruction can dirty a code page, i.e. move
   the decode generation mid-block. *)
let may_write_mem (ins : Insn.t) =
  match ins with
  | Insn.Mov_ri _ | Mov_rr _ | Load _ | Lea _ | Alu_rr _ | Alu_ri _
  | Shift_ri _ | Neg _ | Pop _ | Jmp _ | Jcc _ | Jmp_r _ | Jmp_m _ | Nop
  | Pause | Popf | Vload _ | Vop_rr _ | Rdfsbase _ | Rdgsbase _ | Wrfsbase _
  | Wrgsbase _ | Ldctx _ | Hlt | Ud2 ->
      false
  | _ -> true

(* Provably non-faulting forms (register/immediate only, no memory
   access, no call-out). Anything else may raise {!Addr_space.Fault}. *)
let may_fault (ins : Insn.t) =
  match ins with
  | Insn.Mov_ri _ | Mov_rr _ | Lea _ | Alu_rr _ | Alu_ri _ | Shift_ri _
  | Neg _ | Jmp _ | Jcc _ | Jmp_r _ | Nop | Pause | Vop_rr _ | Rdfsbase _
  | Rdgsbase _ | Wrfsbase _ | Wrgsbase _ ->
      false
  | _ -> true

(* Raised by a slot that completed but must end the run right after
   itself: a store dirtied a code page mid-block, or (instrumented
   slots) a call-out requested a stop, ended the thread or moved the
   decode generation. [t.mega_idx] holds the number of completed slots,
   and — stores and call-outs being flag-observation barriers — the
   flags are exact at that point. *)
exception Break_after

let[@inline] running th =
  match th.state with Runnable -> true | Exited _ | Faulted _ -> false

(* The one data access of a single-access form — whether it writes,
   its width and where its address comes from: the effective address,
   or RSP (a pop) or RSP - 8 (a push) before the instruction runs. *)
let single_access (ins : Insn.t) =
  match ins with
  | Insn.Load (w, _, m) -> Some (false, Insn.width_bytes w, `Ea m)
  | Store (w, m, _) -> Some (true, Insn.width_bytes w, `Ea m)
  | Jmp_m m -> Some (false, 8, `Ea m)
  | Push _ | Pushf | Call _ | Call_r _ -> Some (true, 8, `Push)
  | Pop _ | Popf | Ret -> Some (false, 8, `Pop)
  | _ -> None

(* A single-access form with its memory call-out [f] in front: nothing
   in these forms can fault before the access, so firing first is
   firing just before it. *)
let pre_access f w site (u : t -> thread -> unit) : t -> thread -> unit =
  let w1 = Int64.of_int (w - 1) in
  match site with
  | `Ea m ->
      let bo, xo, sh, disp = addr_mode m in
      fun t th ->
        fire f th.tid (ea th.ctx.Context.gprs bo xo sh disp) w1;
        u t th
  | `Push ->
      fun t th ->
        fire f th.tid (Int64.sub (Context.slot_get th.ctx.Context.gprs rsp) 8L) w1;
        u t th
  | `Pop ->
      fun t th ->
        fire f th.tid (Context.slot_get th.ctx.Context.gprs rsp) w1;
        u t th

(* Compiled instrumentation: slot [i] (at [pc]) of a block, with the
   call-outs [c] its instruction asked for around [u], the exact
   micro-op (no flag elision, no fusion), or [None] when none of them
   applies — the slot then runs the plain micro-op.
   - Memory call-outs: a two-access form is recompiled with them in its
     body; a single-access form fires its one first ({!pre_access}).
   - The branch call-out runs after the micro-op, which recorded a
     direct branch's direction in [t.took]; a fault skips it.
   - A before-call runs first of all, with RIP at [pc], and brings the
     slot's exit obligations: it records its index for fault
     attribution, and after the micro-op polls for what the call-out
     may have done — a stop request, a thread that is no longer
     runnable, a moved decode generation — ending the run right after
     this instruction through {!Break_after}, as the
     single-instruction step would. Only these slots poll. *)
let instrument_slot i ~pc ~next ins (c : callouts) (u : t -> thread -> unit) =
  let applies = ref false in
  let u =
    match (ins, c.read, c.write) with
    | (Insn.Xchg _ | Cmpxchg _ | Vload _ | Vstore _), None, None -> u
    | (Insn.Xchg _ | Cmpxchg _ | Vload _ | Vstore _), rd, wr ->
        applies := true;
        let get = Option.value ~default:no_access in
        compile_ins ~pc ~next ~access:(get rd, get wr) ins
    | _ -> (
        match single_access ins with
        | Some (writes, w, site) -> (
            match if writes then c.write else c.read with
            | Some f ->
                applies := true;
                pre_access f w site u
            | None -> u)
        | None -> u)
  in
  let u =
    match (c.branch, ins) with
    | Some b, Insn.Jcc _ ->
        applies := true;
        fun t th ->
          u t th;
          b th.tid (t.took = 1)
    | Some b, (Jmp _ | Jmp_r _ | Jmp_m _ | Call _ | Call_r _ | Ret) ->
        applies := true;
        fun t th ->
          u t th;
          b th.tid true
    | _ -> u
  in
  match c.before with
  | Some f ->
      Some
        (fun t th ->
          t.mega_idx <- i;
          set_rip th.ctx pc;
          f th.tid;
          u t th;
          if
            t.stop_requested || (not (running th))
            || Addr_space.generation t.mem <> t.decode_generation
          then begin
            t.mega_idx <- i + 1;
            raise Break_after
          end)
  | None -> if !applies then Some u else None

(* Flatten a block's slots into one arity-specialised sequencing closure
   for whole-block runs: no per-slot array fetch, indirect-call dispatch
   or bounds bookkeeping — n + 1 indirect calls per run instead of the
   2n - 1 a pairwise fold costs. Longer blocks chunk by eight and fold
   the chunks. *)
let sequence (slots : (t -> thread -> unit) array) =
  let rec seq lo n =
    match n with
    | 1 -> Array.unsafe_get slots lo
    | 2 ->
        let a = slots.(lo) and b = slots.(lo + 1) in
        fun t th ->
          a t th;
          b t th
    | 3 ->
        let a = slots.(lo) and b = slots.(lo + 1) and c = slots.(lo + 2) in
        fun t th ->
          a t th;
          b t th;
          c t th
    | 4 ->
        let a = slots.(lo)
        and b = slots.(lo + 1)
        and c = slots.(lo + 2)
        and d = slots.(lo + 3) in
        fun t th ->
          a t th;
          b t th;
          c t th;
          d t th
    | 5 ->
        let a = slots.(lo)
        and b = slots.(lo + 1)
        and c = slots.(lo + 2)
        and d = slots.(lo + 3)
        and e = slots.(lo + 4) in
        fun t th ->
          a t th;
          b t th;
          c t th;
          d t th;
          e t th
    | 6 ->
        let a = slots.(lo)
        and b = slots.(lo + 1)
        and c = slots.(lo + 2)
        and d = slots.(lo + 3)
        and e = slots.(lo + 4)
        and f = slots.(lo + 5) in
        fun t th ->
          a t th;
          b t th;
          c t th;
          d t th;
          e t th;
          f t th
    | 7 ->
        let a = slots.(lo)
        and b = slots.(lo + 1)
        and c = slots.(lo + 2)
        and d = slots.(lo + 3)
        and e = slots.(lo + 4)
        and f = slots.(lo + 5)
        and g = slots.(lo + 6) in
        fun t th ->
          a t th;
          b t th;
          c t th;
          d t th;
          e t th;
          f t th;
          g t th
    | 8 ->
        let a = slots.(lo)
        and b = slots.(lo + 1)
        and c = slots.(lo + 2)
        and d = slots.(lo + 3)
        and e = slots.(lo + 4)
        and f = slots.(lo + 5)
        and g = slots.(lo + 6)
        and h = slots.(lo + 7) in
        fun t th ->
          a t th;
          b t th;
          c t th;
          d t th;
          e t th;
          f t th;
          g t th;
          h t th
    | n ->
        let a = seq lo 8 and b = seq (lo + 8) (n - 8) in
        fun t th ->
          a t th;
          b t th
  in
  seq 0 (Array.length slots)

(* Compose a plain block's micro-ops into its mega-op: the
   self-modifying-code re-check collapses from every slot to just the
   store-capable ones ([code_writes] can only move at a store). Fault
   attribution survives composition through [t.mega_idx]: each
   fault-capable slot records its index before running, so the handler
   can repair RIP and report the precise slot exactly as the
   single-instruction step does. *)
let compose_mega (bb_ins : Insn.t array) (uops : (t -> thread -> unit) array) =
  let n = Array.length uops in
  let slot i =
    let u = Array.unsafe_get uops i in
    if may_write_mem bb_ins.(i) && i < n - 1 then (fun t th ->
      (* A last-slot store needs no composed re-check: the hop loop
         re-checks the generation after every completed block. *)
      t.mega_idx <- i;
      u t th;
      if t.mega_cw <> Addr_space.code_writes t.mem then begin
        t.mega_idx <- i + 1;
        raise Break_after
      end)
    else if may_fault bb_ins.(i) then (fun t th ->
      t.mega_idx <- i;
      u t th)
    else u
  in
  sequence (Array.init n slot)

(* Fuse a [Cmp]/[Test]/[Sub] immediately preceding the block's
   terminating [Jcc] into one micro-op: the compare, then the branch on
   the flags it just set, with no call-out in between. Only the chain
   tier runs this (the pair must run atomically, so only whole-block
   runs qualify). The fused op occupies the compare's slot; the [Jcc]
   slot becomes a no-op, keeping the 1:1 slot/instruction mapping
   (neither can fault). The compare's flags are materialised exactly as
   the unfused pair would leave them: whatever runs after the block may
   read them. *)
let compile_fused_tail ~jcc_pc ~jcc_next (alu : Insn.t) c ~rel :
    (t -> thread -> unit) option =
  let cond = cond_fn c in
  let target = Int64.add jcc_next (Int64.of_int rel) in
  (* Successor RIPs indexed by direction — host-branch-free select, as
     in the plain [Jcc] micro-op. *)
  let tgts = [| jcc_next; target |] in
  let fused (op : Insn.alu) d so k =
    match op with
    | Cmp ->
        Some
          (fun t th ->
            let ctx = th.ctx in
            let g = ctx.Context.gprs in
            let flags = ctx.Context.flags in
            let a = Context.slot_get g d and b = operand g so k in
            sub_flags flags a b (Int64.sub a b);
            jcc_taken t ctx jcc_pc tgts (cond flags))
    | Test ->
        Some
          (fun t th ->
            let ctx = th.ctx in
            let g = ctx.Context.gprs in
            let flags = ctx.Context.flags in
            logic_flags flags (Int64.logand (Context.slot_get g d) (operand g so k));
            jcc_taken t ctx jcc_pc tgts (cond flags))
    | Sub ->
        (* The loop-backedge idiom (Sub RCX, 1; Jcc Ne head). *)
        Some
          (fun t th ->
            let ctx = th.ctx in
            let g = ctx.Context.gprs in
            let flags = ctx.Context.flags in
            let a = Context.slot_get g d and b = operand g so k in
            let r = Int64.sub a b in
            sub_flags flags a b r;
            Context.slot_set g d r;
            jcc_taken t ctx jcc_pc tgts (cond flags))
    | Add | And | Or | Xor | Imul -> None
  in
  match alu with
  | Insn.Alu_rr (op, d, s) -> fused op (Context.slot d) (Context.slot s) 0L
  | Alu_ri (op, d, imm) -> fused op (Context.slot d) Context.zero_slot imm
  | _ -> None

(* --- Block translation -------------------------------------------------- *)

let max_ins_bytes = 16
let block_window = 512  (* bytes of code decoded per translation *)
let max_block_ins = 64

(* Markers terminate translation too: they are rare, and ending blocks
   at them keeps marker-driven observers on block boundaries. *)
let terminates_block ins =
  match Insn.classify ins with
  | Insn.K_branch | K_call | K_syscall -> true
  | K_alu | K_load | K_store | K_vector -> false
  | K_other -> (
      match ins with
      | Insn.Cpuid | Ssc_marker _ | Magic _ | Hlt | Ud2 -> true
      | _ -> false)

let build_block t pc =
  let buf = Addr_space.read_avail t.mem pc block_window in
  let len = Bytes.length buf in
  let full = len >= block_window in
  let r = Elfie_util.Byteio.Reader.of_bytes buf in
  let acc = ref [] in
  let count = ref 0 in
  let stop = ref false in
  while not !stop do
    let off = Elfie_util.Byteio.Reader.pos r in
    (* When the window filled, stop before an instruction that could be
       cut short by it (encodings are at most [max_ins_bytes]); it will
       head the next block, decoded from a fresh window. *)
    if !count >= max_block_ins || (full && off > block_window - max_ins_bytes)
    then stop := true
    else
      match Codec.decode r with
      | ins ->
          acc := (off, ins, Elfie_util.Byteio.Reader.pos r) :: !acc;
          incr count;
          if terminates_block ins then stop := true
      | exception Codec.Invalid _ ->
          if !count = 0 then
            raise (Addr_space.Fault { addr = pc; access = Exec });
          stop := true
      | exception Elfie_util.Byteio.Truncated _ ->
          (* The first instruction runs off the end of mapped memory:
             the truncation point is the first unmapped byte, the same
             fault address a 16-byte fetch window would report. A later
             instruction merely ends the block here; re-fetching at its
             pc reports the precise fault. *)
          if !count = 0 then
            raise
              (Addr_space.Fault
                 { addr = Int64.add pc (Int64.of_int len); access = Exec });
          stop := true
  done;
  let items = Array.of_list (List.rev !acc) in
  let n = Array.length items in
  let _, ins0, _ = items.(0) in
  let bb_pc = Array.make n 0L in
  let bb_ins = Array.make n ins0 in
  let bb_next = Array.make n 0L in
  let bb_cost = Array.make n 0 in
  Array.iteri
    (fun i (off, ins, end_off) ->
      bb_pc.(i) <- Int64.add pc (Int64.of_int off);
      bb_ins.(i) <- ins;
      bb_next.(i) <- Int64.add pc (Int64.of_int end_off);
      bb_cost.(i) <- Timing.ins_cost (Insn.classify ins))
    items;
  let bb_prefix = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    bb_prefix.(i + 1) <- bb_prefix.(i) + bb_cost.(i)
  done;
  let exact =
    Array.init n (fun i -> compile_ins ~pc:bb_pc.(i) ~next:bb_next.(i) bb_ins.(i))
  in
  (* Each instruction's call-outs, asked for once, here. *)
  let calls =
    match t.decode_instr with
    | None -> Array.make n no_callouts
    | Some instrument -> Array.init n (fun i -> instrument bb_pc.(i) bb_ins.(i))
  in
  let hooked =
    match t.decode_instr with
    | None -> Array.make n None
    | Some _ ->
        Array.init n (fun i ->
            instrument_slot i ~pc:bb_pc.(i) ~next:bb_next.(i) bb_ins.(i) calls.(i)
              exact.(i))
  in
  let bb_uops =
    Array.init n (fun i ->
        match hooked.(i) with Some u -> u | None -> exact.(i))
  in
  let has_callouts i = Option.is_some hooked.(i) in
  let bb_ends_block =
    match Insn.classify bb_ins.(n - 1) with
    | Insn.K_branch | K_call | K_syscall -> true
    | K_alu | K_load | K_store | K_vector | K_other -> false
  in
  let bb_term = terminates_block bb_ins.(n - 1) in
  let bb_chainable =
    match bb_ins.(n - 1) with
    | Insn.Jmp _ | Jcc _ | Jmp_r _ | Jmp_m _ | Call _ | Call_r _ | Ret -> true
    | _ -> false
  in
  let bb_writes_mem = Array.exists may_write_mem bb_ins in
  (* Static successor pcs: only a direct branch/call terminator yields
     chainable edges. *)
  let bb_succ_taken, bb_succ_fall =
    if not bb_chainable then (-1L, -1L)
    else
      let next = bb_next.(n - 1) in
      match bb_ins.(n - 1) with
      | Insn.Jmp rel -> (Int64.add next (Int64.of_int rel), -1L)
      | Jcc (_, rel) -> (Int64.add next (Int64.of_int rel), next)
      | Call rel -> (Int64.add next (Int64.of_int rel), -1L)
      | _ -> (-1L, -1L)
  in
  let bb_mega =
    (* A slot with call-outs keeps its exact micro-op and counts as an
       observation point; every other slot gets the plain treatment. A
       compare+[Jcc] tail still fuses when the [Jcc] asked only for a
       branch call-out, which then follows the fused op. *)
    let fused =
      if n >= 2 && (not (has_callouts (n - 2))) && calls.(n - 1).before = None
      then
        match bb_ins.(n - 1) with
        | Insn.Jcc (c, rel) -> (
            let f =
              compile_fused_tail ~jcc_pc:bb_pc.(n - 1) ~jcc_next:bb_next.(n - 1)
                bb_ins.(n - 2) c ~rel
            in
            match (f, calls.(n - 1).branch) with
            | Some f, Some b ->
                Some
                  (fun t th ->
                    f t th;
                    b th.tid (t.took = 1))
            | f, _ -> f)
        | _ -> None
      else None
    in
    let fused_at = match fused with Some _ -> n - 2 | None -> n in
    (* Backward pass: [dead.(i)] = all four flags are overwritten after
       slot [i] before any observation point (a reader, a fault-capable
       slot or a call-out) and before the block exits. The fused pair
       writes the compare's flags in full, so it kills like the unfused
       compare would. *)
    let dead = Array.make n false in
    let d = ref (fused <> None) in
    for i = fused_at - 1 downto 0 do
      dead.(i) <- !d;
      match if has_callouts i then F_observe else flag_class bb_ins.(i) with
      | F_kill -> d := true
      | F_neutral -> ()
      | F_observe -> d := false
    done;
    compose_mega bb_ins
      (Array.init n (fun i ->
           match fused with
           | Some f when i = n - 2 -> f
           | Some _ when i = n - 1 -> uop_nop
           | _ ->
               if dead.(i) && flag_class bb_ins.(i) = F_kill && not (has_callouts i)
               then
                 compile_ins ~pc:bb_pc.(i) ~next:bb_next.(i) ~flags_dead:true
                   bb_ins.(i)
               else bb_uops.(i)))
  in
  let _, _, span = items.(n - 1) in
  (* Writes into the decoded span must invalidate this translation. *)
  Addr_space.note_code t.mem ~addr:pc ~len:span;
  {
    bb_pc;
    bb_ins;
    bb_next;
    bb_cost;
    bb_prefix;
    bb_uops;
    bb_ends_block;
    bb_term;
    bb_chainable;
    bb_writes_mem;
    bb_succ_taken;
    bb_succ_fall;
    bb_mega;
    bb_links = [||];
  }

(* Drop every translation when the address space or the
   instrumentation changed since they were made. *)
let refresh_cache t =
  let gen = Addr_space.generation t.mem in
  let instr = t.hooks.instrument in
  if gen <> t.decode_generation || instr != t.decode_instr then begin
    Hashtbl.reset t.block_cache;
    t.decode_generation <- gen;
    t.decode_instr <- instr;
    Array.fill t.block_memo_pc 0 block_memo_size (-1L);
    (* Chain links are pointers between translations of the discarded
       generation or instrumentation: the reset breaks every superblock
       wholesale, so a chain crossing the dirtied page can never
       survive it. *)
    t.stats.st_sb_broken <- t.stats.st_sb_broken + t.live_links;
    t.live_links <- 0
  end

let fetch_slow t pc slot =
  t.stats.st_memo_misses <- t.stats.st_memo_misses + 1;
  let b =
    match Hashtbl.find_opt t.block_cache pc with
    | Some b -> b
    | None ->
        let b = build_block t pc in
        Hashtbl.replace t.block_cache pc b;
        b
  in
  t.block_memo_pc.(slot) <- pc;
  t.block_memo.(slot) <- b;
  b

(* Inline, so a memo hit takes the pc unboxed (it comes from RIP's
   slot); only a miss boxes it. *)
let[@inline] fetch_block t pc =
  refresh_cache t;
  let slot = Int64.to_int pc land (block_memo_size - 1) in
  if Int64.equal (Array.unsafe_get t.block_memo_pc slot) pc then begin
    t.stats.st_memo_hits <- t.stats.st_memo_hits + 1;
    Array.unsafe_get t.block_memo slot
  end
  else fetch_slow t pc slot

(* Retirement epilogue shared by every executed instruction: perf
   counter, timer interrupt, warmup mark, armed-counter graceful exit —
   in the historical per-step order. *)
let retire t th =
  th.retired <- th.retired + 1;
  t.retired_total <- t.retired_total + 1;
  (match t.timer with
  | Some (interval, cycles, rng) ->
      th.timer_left <- th.timer_left - 1;
      if th.timer_left <= 0 then begin
        th.cycles <- th.cycles + cycles;
        t.ring0 <- t.ring0 + cycles;
        th.timer_left <- (interval / 2) + Elfie_util.Rng.int rng interval
      end
  | None -> ());
  (match th.mark_target with
  | Some target when th.retired >= target ->
      th.mark_target <- None;
      th.mark_retired <- Some th.retired;
      th.mark_cycles <- th.cycles;
      if t.stop_on_mark then t.stop_requested <- true
  | Some _ | None -> ());
  match th.counter_target with
  | Some target when th.retired >= target ->
      (* The counter reaches its count even when this very instruction
         made the thread exit (e.g. a region ending in exit_group). *)
      th.counter_fired <- true;
      (match th.state with
      | Runnable -> exit_thread t th.tid ~status:0
      | Exited _ | Faulted _ -> ())
  | Some _ | None -> ()

let record_fault t th pc ins addr access =
  (* Ud2/Hlt reuse the fault exception with access=Exec, addr=pc. *)
  (match ins with
  | Insn.Ud2 -> th.state <- Faulted (Invalid_opcode pc)
  | Hlt -> th.state <- Faulted (Privileged pc)
  | _ -> th.state <- Faulted (Page_fault { addr; access; pc }));
  if t.stop_on_fault then t.stop_requested <- true

(* Events fire when [retired] reaches the target: the chain must stop
   one instruction short of it, so the event's own instruction retires
   in the step loop. *)
let[@inline] cap_target fuel target retired =
  let room = target - retired in
  if room <= fuel then if room < 1 then 0 else room - 1 else fuel

(* Largest chain budget within [limit] that keeps every retirement
   event (timer tick, warmup mark, armed counter) strictly outside the
   chain. *)
let[@inline] event_fuel t th limit =
  let fuel =
    match t.timer with
    | Some _ -> if th.timer_left - 1 < limit then th.timer_left - 1 else limit
    | None -> limit
  in
  let fuel =
    match th.mark_target with
    | Some tg -> cap_target fuel tg th.retired
    | None -> fuel
  in
  match th.counter_target with
  | Some tg -> cap_target fuel tg th.retired
  | None -> fuel

(* First chain visit of a direct-tail block: translate both static
   successors and install the links (the superblock's edges). A
   successor that cannot be fetched (unmapped target) leaves its link
   dummy; arriving there exits the chain and the dispatch path reports
   the precise fault. *)
let resolve_links t (b : bb) =
  let link pc =
    if Int64.equal pc (-1L) then dummy_bb
    else
      match fetch_block t pc with
      | nb ->
          t.stats.st_sb_built <- t.stats.st_sb_built + 1;
          t.live_links <- t.live_links + 1;
          nb
      | exception Addr_space.Fault _ -> dummy_bb
  in
  let lf = link b.bb_succ_fall in
  let lt = link b.bb_succ_taken in
  b.bb_links <- [| lf; lt |]

(* The step loop: up to [limit] instructions of [bb] from its head, one
   micro-op at a time, each retiring through [retire]. It runs {!step}
   and what the chain may not run whole: a block reached with less
   event fuel than its length (a timer tick, warmup mark or armed
   counter falls inside it, or the quantum or [max_ins] cuts it short)
   and a syscall, marker or trap terminator with the instructions
   before it. Instrumented translations take the same path: their
   slots make the call-outs. The block observer (count-driven profiler)
   is notified once with the attempted prefix — equivalent to
   per-instruction feeding. *)
let step_block t th (bb : bb) limit =
  let len = Array.length bb.bb_ins in
  let n = if limit < len then limit else len in
  let gen = t.decode_generation in
  let st = t.stats in
  let attempted = ref 0 in
  let continue_ = ref true in
  while !continue_ && !attempted < n do
    let idx = !attempted in
    incr attempted;
    t.dyn_cost <- 0;
    let completed =
      match (Array.unsafe_get bb.bb_uops idx) t th with
      | () -> true
      | exception Break_after -> true
      | exception Addr_space.Fault { addr; access } ->
          (* On every path a fault leaves RIP past the faulting
             instruction. *)
          set_rip th.ctx (Array.unsafe_get bb.bb_next idx);
          record_fault t th
            (Array.unsafe_get bb.bb_pc idx)
            (Array.unsafe_get bb.bb_ins idx)
            addr access;
          false
    in
    if completed then begin
      (* Terminators move RIP themselves (a syscall handler may even
         redirect it); every other instruction falls through. Only a
         block's last slot can be one. *)
      if not (bb.bb_term && idx = len - 1) then
        set_rip th.ctx (Array.unsafe_get bb.bb_next idx);
      th.cycles <- th.cycles + Array.unsafe_get bb.bb_cost idx + t.dyn_cost;
      st.st_ret_stepped <- st.st_ret_stepped + 1;
      retire t th
    end;
    if
      (not (running th)) || t.stop_requested
      || gen <> Addr_space.generation t.mem
    then
      (* A write into a code page (or a map/unmap) invalidated the
         translation mid-block: fall back to the scheduler loop, which
         re-fetches from a fresh decode. *)
      continue_ := false
  done;
  (match t.block_observer with
  | None -> ()
  | Some f ->
      f ~tid:th.tid ~pcs:bb.bb_pc ~n:!attempted
        ~ends_block:(!attempted = len && bb.bb_ends_block));
  !attempted

(* Execute up to [limit] instructions of [th]'s current translated
   block and of its chained successors: whole blocks hop
   translation-to-translation along direct-branch links without
   returning to the dispatch loop, with per-block bulk retirement and
   one block-observer call per hop (identical granularity to
   dispatch-driven execution, so BBV slice accounting is bit-for-bit
   unchanged). Instrumented and plain translations chain alike.
   Indirect branches, faults, event-fuel exhaustion, invalidations
   (including a change of instrumentation) and stop requests break the
   chain back to dispatch; a first block the chain cannot run whole
   goes to the step loop. Returns how many instructions were attempted
   (a faulting fetch or instruction counts as one, matching the
   per-step accounting). *)
let exec_block t th limit =
  let pc0 = get_rip th.ctx in
  match fetch_block t pc0 with
  | exception Addr_space.Fault { addr; access = _ } ->
      th.state <- Faulted (Page_fault { addr; access = Exec; pc = pc0 });
      1
  | bb ->
      let st = t.stats in
      let gen = t.decode_generation in
      let total = ref 0 in
      (* Retirement is deferred: completed-instruction and cycle counts
         accumulate in unboxed locals and flush into the boxed int64
         thread counters once per call, not once per hop. *)
      let retired_acc = ref 0 in
      let acc_cycles = ref 0 in
      let finished = ref false in
      let cur = ref bb in
      let looping = ref true in
      let observer_none =
        match t.block_observer with None -> true | Some _ -> false
      in
      (* Call-outs (instrumented slots, the observer) may change the
         instrumentation or the address space between hops. *)
      let watch = Option.is_some t.decode_instr || not observer_none in
      (* Event fuel is computed once per call: every retirement target
         (timer, mark, counter) and the caller's limit shrink in lockstep
         with the instructions the chain executes, so a single budget
         decremented per hop gives the same bound as recomputing the
         fuel every hop — and keeps event boundaries exact while
         retirement is deferred. *)
      let budget = ref (event_fuel t th limit) in
      let iters = ref 0 in
      let part = ref 0 in
      let faulted = ref false in
      let cut = ref false in
      t.dyn_cost <- 0;
      while !looping do
        let b = !cur in
        let len = Array.length b.bb_uops in
        if not b.bb_chainable then begin
          (* Syscall/marker/trap tail (or a translation-window cut): only
             the step loop may run it. *)
          looping := false;
          if !total > 0 then st.st_x_indirect <- st.st_x_indirect + 1
        end
        else begin
          let fuel = !budget in
          if fuel < len then begin
            (* Not enough event fuel for a whole-block hop; the step loop
               runs the partial block. *)
            looping := false;
            if !total > 0 then st.st_x_fuel <- st.st_x_fuel + 1
          end
          else begin
            if
              Array.length b.bb_links = 0
              && not (Int64.equal b.bb_succ_taken (-1L))
            then resolve_links t b;
            let links = b.bb_links in
            let linked = Array.length links = 2 in
            let mega = b.bb_mega in
            if b.bb_writes_mem then t.mega_cw <- Addr_space.code_writes t.mem;
            (* Self-loop turbo: an unobserved block whose hot edge is its
               own head re-runs the mega back to back, paying the per-hop
               bookkeeping once per burst. The iteration budget keeps the
               burst inside the event fuel. Blocks that do not link to
               themselves skip the budget division: their burst is a
               single iteration by construction. *)
            let max_iters =
              if
                observer_none && linked
                && (Array.unsafe_get links 0 == b
                   || Array.unsafe_get links 1 == b)
              then fuel / len
              else 1
            in
            iters := 0;
            part := 0;
            faulted := false;
            cut := false;
            (try
               let go = ref true in
               while !go do
                 mega t th;
                 incr iters;
                 (* [t.took] was just written by the terminator slot; when
                    [max_iters = 1] the short-circuit exits before the
                    (possibly empty) links array is touched. *)
                 if
                   !iters >= max_iters || Array.unsafe_get links t.took != b
                 then go := false
               done
             with
            | Addr_space.Fault { addr; access } ->
                let idx = t.mega_idx in
                set_rip th.ctx (Array.unsafe_get b.bb_next idx);
                record_fault t th
                  (Array.unsafe_get b.bb_pc idx)
                  (Array.unsafe_get b.bb_ins idx)
                  addr access;
                part := idx;
                faulted := true;
                cut := true
            | Break_after ->
                part := t.mega_idx;
                cut := true);
            let ok = (!iters * len) + !part in
            (* Slots never advance RIP; only a terminating branch and the
               fault path move it. Repair it after a cut mid-block. *)
            if !part > 0 && !part < len && not !faulted then
              set_rip th.ctx (Array.unsafe_get b.bb_next (!part - 1));
            acc_cycles :=
              !acc_cycles
              + (!iters * Array.unsafe_get b.bb_prefix len)
              + (if !part > 0 then Array.unsafe_get b.bb_prefix !part else 0)
              + t.dyn_cost;
            t.dyn_cost <- 0;
            retired_acc := !retired_acc + ok;
            let attempted = if !faulted then ok + 1 else ok in
            total := !total + attempted;
            budget := !budget - attempted;
            if not observer_none then (
              match t.block_observer with
              | None -> ()
              | Some f ->
                  f ~tid:th.tid ~pcs:b.bb_pc ~n:attempted
                    ~ends_block:(attempted = len && b.bb_ends_block));
            if !faulted then begin
              looping := false;
              finished := true;
              st.st_x_fault <- st.st_x_fault + 1
            end
            else if
              (* Between chain hops the generation can only move from a
                 store (syscalls never run in the chain) or a call-out;
                 hops with neither skip the re-check, and a store-bearing
                 hop checks right after itself, so a moved generation is
                 never outrun. *)
              (!cut || b.bb_writes_mem || watch)
              && gen <> Addr_space.generation t.mem
              || (watch && t.hooks.instrument != t.decode_instr)
            then begin
              looping := false;
              finished := true;
              st.st_x_inval <- st.st_x_inval + 1
            end
            else if !cut || t.stop_requested then begin
              (* A cut that moved nothing was a call-out's stop request
                 or thread exit. *)
              looping := false;
              finished := true;
              st.st_x_stop <- st.st_x_stop + 1
            end
            else begin
              (* A whole-block run of a directly-terminated block left the
                 edge index in [t.took]; indirect or cut tails have no
                 links array and exit to dispatch. *)
              let nxt =
                if linked then Array.unsafe_get links t.took else dummy_bb
              in
              if nxt == dummy_bb then begin
                looping := false;
                st.st_x_indirect <- st.st_x_indirect + 1
              end
              else cur := nxt
            end
          end
        end
      done;
      if !retired_acc > 0 || !acc_cycles > 0 then begin
        th.retired <- th.retired + !retired_acc;
        t.retired_total <- t.retired_total + !retired_acc;
        (match t.timer with
        | Some _ -> th.timer_left <- th.timer_left - !retired_acc
        | None -> ());
        th.cycles <- th.cycles + !acc_cycles;
        st.st_ret_chained <- st.st_ret_chained + !retired_acc
      end;
      if !finished || !total > 0 then !total else step_block t th bb limit

let step t tid =
  let th = thread t tid in
  if th.state <> Runnable then invalid_arg "Machine.step: thread not runnable";
  let pc0 = get_rip th.ctx in
  match fetch_block t pc0 with
  | exception Addr_space.Fault { addr; access = _ } ->
      th.state <- Faulted (Page_fault { addr; access = Exec; pc = pc0 })
  | bb -> ignore (step_block t th bb 1)

(* Run up to [n] instructions of [tid], stopping where [run ~max_ins]
   must; returns how many were attempted. *)
let run_slice t tid n limit =
  let th = thread t tid in
  let executed = ref 0 in
  while
    (match th.state with Runnable -> true | Exited _ | Faulted _ -> false)
    && !executed < n
    && (not t.stop_requested)
    && match limit with
       | Some l -> t.retired_total < l
       | None -> true
  do
    let room =
      match limit with
      | None -> n - !executed
      | Some l ->
          let room = n - !executed in
          if room <= l - t.retired_total then room else l - t.retired_total
    in
    executed := !executed + exec_block t th room
  done;
  !executed

let run_quantum t tid n = run_slice t tid n None
let thread_count t = Array.length t.thread_arr

let record_slice t tid n =
  if t.record_schedule && n > 0 then begin
    let merged =
      match t.schedule_rev with
      | (tid', n') :: rest when tid' = tid && not t.schedule_cut ->
          (tid, n + n') :: rest
      | rest -> (tid, n) :: rest
    in
    t.schedule_cut <- false;
    t.schedule_rev <- merged
  end

let runnable_tids t =
  let out = ref [] in
  Array.iter (fun th -> if th.state = Runnable then out := th.tid :: !out) t.thread_arr;
  List.rev !out

let run ?max_ins t =
  let max_ins = Option.map count_of_int64 max_ins in
  let continue_ () =
    (not t.stop_requested)
    && (match max_ins with Some l -> t.retired_total < l | None -> true)
  in
  (match t.sched with
  | S_free s ->
      let rec loop () =
        if continue_ () then begin
          match runnable_tids t with
          | [] -> ()
          | tids ->
              let tid, quantum =
                match s.pending with
                | Some (tid, left) when (thread t tid).state = Runnable ->
                    s.pending <- None;
                    (tid, left)
                | Some _ | None ->
                    let tid =
                      List.nth tids (Elfie_util.Rng.int s.rng (List.length tids))
                    in
                    let quantum =
                      s.quantum_min
                      + Elfie_util.Rng.int s.rng (s.quantum_max - s.quantum_min + 1)
                    in
                    (* A quantum only exists to interleave threads: with
                       a single runnable thread (and no schedule being
                       recorded, where slice granularity is the output)
                       its size is architecturally invisible, so widen
                       it and spare the dispatch round-trips. The RNG
                       draws above still happen, keeping the stream —
                       and thus any later multi-thread interleaving —
                       identical. *)
                    let quantum =
                      match tids with
                      | [ _ ] when not t.record_schedule ->
                          if quantum < 65536 then 65536 else quantum
                      | _ -> quantum
                    in
                    (tid, quantum)
              in
              let n = run_slice t tid quantum max_ins in
              record_slice t tid n;
              if n < quantum && (thread t tid).state = Runnable then
                s.pending <- Some (tid, quantum - n);
              loop ()
        end
      in
      loop ()
  | S_recorded slices ->
      let rec loop () =
        if continue_ () then
          match !slices with
          | [] -> ()
          | (tid, n) :: rest ->
              slices := rest;
              let th = thread t tid in
              if th.state = Runnable then begin
                ignore (run_slice t tid n max_ins)
              end;
              loop ()
      in
      loop ());
  flush_core_metrics t

(* --- Copy-on-write machine snapshots ----------------------------------- *)

(* Everything a forked machine needs, captured by value: the address
   space is frozen (pointer work only), threads (with their contexts),
   the timing model and the scheduler are copied, RNGs are duplicated at
   their exact stream position. The snapshot owns these copies and each
   fork copies them again, so forks never share mutable state.
   Derived caches (block cache, memo, soft-TLB, chain links) are NOT
   captured — a fork re-translates lazily, which both keeps the capture
   O(pages + threads) and makes forks trivially safe to run on separate
   domains (translated [bb] records hold mutable link arrays that
   [resolve_links] writes; sharing them across forks would race). *)
type snapshot = {
  snap_mem : Addr_space.frozen;
  snap_threads : thread array;
  snap_timing : Timing.t option;
  snap_sched : sched_state;
  snap_timer : (int * int * Elfie_util.Rng.t) option;
  snap_ring0 : int;
  snap_retired_total : int;
  snap_record_schedule : bool;
  snap_schedule_rev : (int * int) list;
  snap_schedule_cut : bool;
}

let copy_thread th = { th with ctx = Context.copy th.ctx }

let copy_sched = function
  | S_free s -> S_free { s with rng = Elfie_util.Rng.copy s.rng }
  | S_recorded slices -> S_recorded (ref !slices)

let copy_timer = Option.map (fun (i, c, rng) -> (i, c, Elfie_util.Rng.copy rng))

let snapshot t =
  Metrics.inc m_snap_captures;
  {
    snap_mem = Addr_space.freeze t.mem;
    snap_threads = Array.map copy_thread t.thread_arr;
    snap_timing = Option.map Timing.copy t.timing;
    snap_sched = copy_sched t.sched;
    snap_timer = copy_timer t.timer;
    snap_ring0 = t.ring0;
    snap_retired_total = t.retired_total;
    snap_record_schedule = t.record_schedule;
    snap_schedule_rev = t.schedule_rev;
    snap_schedule_cut = t.schedule_cut;
  }

let snapshot_page_count snap = Addr_space.frozen_page_count snap.snap_mem

(* Re-derive the machine's nondeterminism sources from [seed] at the
   current point: the scheduler and timer streams restart from
   seed-derived states and any partially consumed quantum is dropped,
   so the continuation depends only on (architectural state, seed).
   Applying the same seed to a fork and to an identically warmed fresh
   machine yields bit-identical continuations — the per-trial variation
   handle for warm-once/fork-many measurement. *)
let reseed t seed =
  let base = Elfie_util.Rng.create seed in
  (match t.sched with
  | S_free s ->
      Elfie_util.Rng.reseed s.rng (Elfie_util.Rng.next64 base);
      s.pending <- None
  | S_recorded _ -> ());
  match t.timer with
  | Some (_, _, rng) -> Elfie_util.Rng.reseed rng (Elfie_util.Rng.next64 base)
  | None -> ()

let clear_stop t = t.stop_requested <- false
let set_stop_on_mark t b = t.stop_on_mark <- b
let set_stop_on_fault t b = t.stop_on_fault <- b

let fork ?reseed:seed snap =
  Metrics.inc m_snap_forks;
  let m =
    make (Addr_space.fork snap.snap_mem)
      (Option.map Timing.copy snap.snap_timing)
      (copy_sched snap.snap_sched)
  in
  m.thread_arr <- Array.map copy_thread snap.snap_threads;
  m.timer <- copy_timer snap.snap_timer;
  m.ring0 <- snap.snap_ring0;
  m.retired_total <- snap.snap_retired_total;
  m.record_schedule <- snap.snap_record_schedule;
  m.schedule_rev <- snap.snap_schedule_rev;
  m.schedule_cut <- snap.snap_schedule_cut;
  (match seed with Some s -> reseed m s | None -> ());
  m

(** The VX86 machine: threads, instruction execution, scheduler,
    instrumentation.

    This is the substrate everything runs on: native program execution
    (the paper's "real hardware"), Pin-style instrumented execution (the
    {!Elfie_pin} library attaches to the {!hooks}), constrained pinball
    replay (a {!Recorded} scheduler plus a syscall filter), and ELFie
    execution under the simulators.

    The machine is kernel-agnostic: system calls trap to a pluggable
    handler installed by {!Elfie_kernel}. *)

type fault =
  | Page_fault of { addr : int64; access : Addr_space.access; pc : int64 }
  | Invalid_opcode of int64  (** pc *)
  | Privileged of int64  (** [Hlt] in user mode *)

val pp_fault : Format.formatter -> fault -> unit

type thread_state = Runnable | Exited of int | Faulted of fault

type thread = {
  tid : int;
  ctx : Context.t;
  mutable state : thread_state;
  mutable retired : int;  (** user instructions retired *)
  mutable cycles : int;
  mutable counter_target : int option;
      (** armed retired-instruction counter: reaching it exits the
          thread gracefully (status 0) and sets [counter_fired] *)
  mutable counter_fired : bool;
  mutable arm_retired : int;  (** retired count when the counter was armed *)
  mutable arm_cycles : int;  (** cycle count when the counter was armed *)
  mutable mark_target : int option;
      (** pending warmup mark: when [retired] reaches it, a snapshot is
          taken (counters are read mid-run, as after a warmup phase) *)
  mutable mark_retired : int option;
  mutable mark_cycles : int;
  mutable timer_left : int;  (** instructions until the next timer tick *)
}

(** Thread interleaving policy. [Free] models real concurrency with
    seeded pseudo-random quanta (run-to-run variation comes from the
    seed); [Recorded] enforces a previously captured schedule, which is
    what makes pinball replay *constrained*. *)
type scheduler =
  | Free of { seed : int64; quantum_min : int; quantum_max : int }
  | Recorded of (int * int) list

(** The analysis calls one instruction asks for, chosen once, when its
    block is translated (Pin's instrumentation/analysis split). A slot
    with none of them runs the same flag-elided, compare+[Jcc]-fused
    micro-op as a hook-free translation, and a block with none runs
    exactly like one. Every call-out receives the executing thread's
    tid first.
    - [before]: just before the instruction executes, with RIP at its
      address. Registers, flags and memory are exact: every earlier
      instruction has completed, nothing of this one has started. Only a
      before-call may {!request_stop}, end a thread or change the
      address space: the run then ends right after this instruction
      (which still retires), wherever it sits in its block, exactly as
      {!step} would stop. A faulting instruction's before-call runs.
    - [read], [write]: just before each data access of that kind, with
      the {!Cache.key} of the access's first byte and of its last byte
      (so a page or line tracker sees both ends exactly; the width is
      fixed by the instruction). A faulting access's call-out runs; a
      later access of the same instruction does not.
    - [branch]: after a branch, call or return completes, with whether
      it was taken (always [true] but for a conditional branch that
      falls through); not after one that faults.

    Call-outs that do not apply to the instruction (a memory call-out
    on a register-only form, a branch call-out on a non-branch) are
    ignored. [Ldctx]/[Stctx] make no memory call-outs. Thread [retired]
    and [cycles] counts (and {!total_retired}, {!elapsed_cycles})
    advance per executed block, not per instruction; they are exact in
    [on_marker] and in the syscall handler. A call-out must return
    normally; an exception escaping one leaves the running block's
    retired and cycle counts unflushed. *)
type callouts = {
  before : (int -> unit) option;
  read : (int -> int -> int -> unit) option;
  write : (int -> int -> int -> unit) option;
  branch : (int -> bool -> unit) option;
}

val no_callouts : callouts

(** Instrumentation points. All default to [None]; the Pin layer and
    simulators fill them in.

    [instrument pc ins] is called once per decoded instruction, when
    its block is translated, and returns that instruction's
    {!callouts}. Installing, replacing or removing it applies at the
    next block fetch (the translation cache is rebuilt), and the new
    translations chain like the old ones. [on_marker], the rare-event
    hook, is looked up each time it fires, with the tid and the
    [Cpuid]/[Ssc_marker]/[Magic] instruction, RIP already past it,
    before it retires. *)
type hooks = {
  mutable instrument : (int64 -> Elfie_isa.Insn.t -> callouts) option;
  mutable on_marker : (int -> Elfie_isa.Insn.t -> unit) option;
}

type t

(** Decision taken by the syscall filter before the kernel runs. *)
type syscall_action = Run_syscall | Skip_syscall

(** [create ?native sched] builds an empty machine. A [native] machine
    (the default) stands in for the real CPU: every instruction costs
    its class's {!Timing.ins_cost} plus the penalties of the {!Timing}
    model's caches and branch predictor. With [~native:false], for the
    front-end of a simulator that models memory and branches itself, no
    cache or predictor is built and only the per-class costs are
    charged: thread [cycles], {!elapsed_cycles} and the guest's clock
    still advance, but exclude memory and branch penalties. Retired
    counts, registers and memory are the same either way. *)
val create : ?native:bool -> scheduler -> t

val mem : t -> Addr_space.t
val hooks : t -> hooks

(** Install the kernel's syscall handler. The handler runs with the
    thread's RIP already advanced past the [Syscall] instruction. *)
val set_syscall_handler : t -> (t -> int -> unit) -> unit

(** Install a filter consulted before each system call; [Skip_syscall]
    suppresses the kernel handler (replay-time injection). *)
val set_syscall_filter : t -> (t -> int -> syscall_action) -> unit

(** [add_thread t ctx] registers a new runnable thread; returns its tid.
    Thread 0 is the initial thread by convention. *)
val add_thread : t -> Context.t -> int

val thread : t -> int -> thread
val threads : t -> thread list

(** Terminate one thread (used by [exit]) or the whole process. *)
val exit_thread : t -> int -> status:int -> unit

val exit_all : t -> status:int -> unit

(** [count_of_int64 n] is [n] as a bound on an [int] counter, saturated
    to [0 .. max_int]: a counter (never negative, never [max_int]) is
    below it exactly when it is below [n]. For counts that come from
    outside, such as a guest syscall argument, a pinball icount or a
    command-line budget. *)
val count_of_int64 : int64 -> int

(** Arm the retired-instruction performance counter of a thread. The
    target is saturated by {!count_of_int64}. *)
val arm_counter : t -> int -> target:int64 -> unit

(** Schedule a mid-run counter snapshot (warmup boundary) at an absolute
    retired count. *)
val arm_mark : t -> int -> target:int64 -> unit

(** Enable periodic timer interrupts: roughly every [interval] retired
    instructions per thread (jittered by [seed]), [cycles] of kernel
    work are charged to the running thread. This is the OS noise that
    makes repeated native-hardware measurements differ run to run. *)
val set_timer : t -> interval:int -> cycles:int -> seed:int64 -> unit

(** Ask the run loop to stop at the next instruction boundary (from a
    call-out: right after the current instruction). *)
val request_stop : t -> unit

(** Whether a stop has been requested (drivers running their own
    scheduling loop, like cycle-driven simulators, must poll this). *)
val stop_requested : t -> bool

(** Charge kernel-mode work to a thread: bumps its cycle count and the
    machine's ring-0 instruction counter but not user retired counts. *)
val charge_ring0 : t -> int -> instructions:int -> cycles:int -> unit

val ring0_retired : t -> int64

(** Record the interleaving of a [Free] run so it can later drive a
    [Recorded] one. *)
val set_record_schedule : t -> bool -> unit

val recorded_schedule : t -> (int * int) list

(** Force a boundary in the recorded schedule: the next quantum starts a
    fresh entry even for the same thread. Used by observers that slice
    the recording at known execution points. *)
val cut_schedule : t -> unit

(** [run_quantum t tid n] runs up to [n] instructions of thread [tid]
    through the chain, as {!run} runs a scheduler quantum, and returns
    how many it attempted (a faulting instruction or fetch counts). It
    returns early when the thread stops being runnable or a stop is
    requested, and neither consults nor advances the scheduler: a
    driver that picks threads itself (a cycle-driven simulator) calls
    it in place of {!run}, and {!flush_core_metrics} when done. *)
val run_quantum : t -> int -> int -> int

(** Number of threads ever added; tids are [0 .. thread_count t - 1]. *)
val thread_count : t -> int

(** Execute a single instruction of a thread. Faults are caught and
    recorded in the thread state. Raises [Invalid_argument] if the
    thread is not runnable. A step retires exactly as the same
    instruction does inside a {!run} (same micro-op, cycles and
    retirement events), so replaying a schedule recorded by {!run}
    one [step] at a time reproduces the run's final state. *)
val step : t -> int -> unit

(** Install (or clear) the basic-block observer, called once per
    executed block prefix with the block's instruction PCs, the number
    [n] of instructions attempted from its head, and whether the run
    ended on the block's terminating branch/call/syscall. This is the
    hook-free path the count-driven profiler rides: feeding
    [Elfie_obs.Profile.note_block] here is equivalent to one [note] per
    instruction from a before-call, without any per-instruction
    call-out. *)
val set_block_observer :
  t ->
  (tid:int -> pcs:int64 array -> n:int -> ends_block:bool -> unit) option ->
  unit

(** Number of distinct basic blocks currently translated (cache size
    after generation flushes — an observability counter). *)
val translated_blocks : t -> int

(** Monotone per-machine core-execution counters: block-memo efficacy,
    superblock link churn, chain exits by reason, and user instructions
    retired by each of the two ways a block runs — whole, in the chain
    of composed blocks ([retired_chained]), or one instruction at a
    time ([retired_stepped]: syscall, marker and trap blocks, blocks
    that a retirement event, the scheduler quantum or [max_ins] cuts
    short, and every {!step}). Mirrored into the [elfie_core_*] metric
    families at the end of every {!run}. A stop requested from a
    before-call inside a chained block counts in [exits_stop]; a
    code-page write, or a change of the instrumentation routine, in
    [exits_invalidation]. *)
type chain_stats = {
  memo_hits : int;
  memo_misses : int;
  superblocks_built : int;
  superblocks_broken : int;
  exits_indirect : int;  (* indirect/unlinked tail reached *)
  exits_fuel : int;  (* event/quantum fuel below next block's length *)
  exits_fault : int;
  exits_invalidation : int;  (* code page dirtied mid-chain *)
  exits_stop : int;
  retired_chained : int;
  retired_stepped : int;
}

val chain_stats : t -> chain_stats

(** Mirror the counters above into the [elfie_core_*] metric families
    now. {!run} does this when it returns; a driver that advances the
    machine only with {!step} calls it when done. *)
val flush_core_metrics : t -> unit

(** Run until no thread is runnable, a stop is requested, or [max_ins]
    user instructions have retired machine-wide. *)
val run : ?max_ins:int64 -> t -> unit

(** Sum of user instructions retired over all threads. *)
val total_retired : t -> int64

(** Wall-clock proxy: maximum per-thread cycle count (threads execute in
    parallel on distinct cores). Without the native model (see
    {!create}) it counts per-class costs only. *)
val elapsed_cycles : t -> int64

(** True when every thread exited with status 0 (no faults, no nonzero
    exits). *)
val all_exited_cleanly : t -> bool

(** {2 Copy-on-write snapshots}

    [snapshot t] captures the machine in O(pages + threads) pointer
    work: the address space is frozen copy-on-write
    ({!Addr_space.freeze} — no page contents are copied; the first
    write to a shared page, by the parent or any fork, privatises just
    that page), threads, contexts, the scheduler and the timing model
    are copied, and every RNG is duplicated at its exact stream
    position. The parent stays fully usable.

    [fork snap] materialises an independent machine from the capture,
    again without copying page contents. Forks share only the immutable
    frozen bytes, so any number of them may run concurrently on
    separate domains. Derived caches are deliberately not forked —
    the block cache, block memo, soft-TLB and superblock chain links
    are rebuilt lazily (they hold arrays that chain resolution mutates,
    so sharing them across forks would race); hooks, the block
    observer, the syscall handler/filter and any pending stop are
    reset, and the kernel must be re-installed on the fork.

    [fork ~reseed:seed snap] additionally re-derives the scheduler and
    timer RNG streams from [seed] at the fork point (dropping any
    partially consumed quantum). Applying {!reseed} with the same seed
    to an identically warmed fresh machine yields a bit-identical
    continuation — the per-trial variation handle used by
    warm-once/fork-many measurement, property-tested in
    [test/test_perf_core.ml]. *)

type snapshot

val snapshot : t -> snapshot
val fork : ?reseed:int64 -> snapshot -> t

val snapshot_page_count : snapshot -> int

(** Restart the scheduler and timer RNG streams from [seed] at the
    current execution point, dropping any partially consumed scheduler
    quantum. See {!fork}. *)
val reseed : t -> int64 -> unit

(** Clear a previously requested (or {!set_stop_on_mark}-triggered)
    stop so {!run} can be called again to continue. *)
val clear_stop : t -> unit

(** When enabled, a firing warmup mark ({!arm_mark}) also requests a
    stop: {!run} returns right after the mark retires, leaving the
    machine warmed and ready for {!snapshot}. *)
val set_stop_on_mark : t -> bool -> unit

(** When enabled, an instruction that faults also requests a stop:
    {!run} returns right after it. A faulting instruction retires
    nothing, so a driver that segments a run by executed instructions
    (retired ones plus faulting ones) uses this where [run ~max_ins]
    alone would overshoot. *)
val set_stop_on_fault : t -> bool -> unit

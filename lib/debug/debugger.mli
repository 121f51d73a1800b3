(** Vgdb: a debugger for ELFies (and any VX86 executable).

    Implements the paper's recommended ELFie debugging workflow
    (Section II-B5): break on [elfie_on_start] — at which point all
    application pages are guaranteed to be mapped — then set breakpoints
    at application addresses. Because this reproduction's pinballs carry
    the original program's symbols into the generated ELFie, breakpoints
    on application symbols work too (the "symbolic debugging" extension
    the paper leaves as future work).

    The debugger owns the scheduler: threads advance round-robin one
    instruction at a time while under its control, so breakpoints are
    exact and deterministic for a given seed.

    Time travel: the debugger records which thread executed each step
    and drops a copy-on-write waypoint (machine snapshot + kernel
    clone) every [snapshot_every] steps. {!reverse_stepi} and
    {!reverse_continue} fork the nearest waypoint at or below the
    target step and deterministically replay the recorded thread
    sequence — exact reversal at any step count, without ever running
    the machine backwards. *)

type stop_reason =
  | Breakpoint of { tid : int; addr : int64 }
  | Step_done of int  (** tid *)
  | All_exited
  | Thread_fault of { tid : int; message : string }
  | Budget_exhausted  (** the instruction budget of [continue_] ran out *)
  | History_begin  (** reverse execution reached the start of history *)

val pp_stop : Format.formatter -> stop_reason -> unit

type t

(** Load an image under the debugger (process created but not started;
    scheduler and kernel seeded with 11).
    [snapshot_every] sets the time-travel waypoint cadence in debugger
    steps (default 1024; waypoints are copy-on-write, so the cost per
    waypoint is O(mapped pages) pointer work, not a memory copy). *)
val launch :
  ?fs_init:(Elfie_kernel.Fs.t -> unit) ->
  ?cwd:string ->
  ?snapshot_every:int ->
  Elfie_elf.Image.t ->
  t

val machine : t -> Elfie_machine.Machine.t

(** Set / clear a breakpoint at an absolute address. *)
val break_at : t -> int64 -> unit

val clear_at : t -> int64 -> unit

(** Resolve a symbol (from the image's symbol table) and break on it. *)
val break_symbol : t -> string -> (int64, string) result

val breakpoints : t -> int64 list

(** Run until a breakpoint, fault, exit, or [budget] instructions. *)
val continue_ : ?budget:int64 -> t -> stop_reason

(** Execute one instruction of [tid] (default: the last-stopped thread). *)
val step : ?tid:int -> t -> stop_reason

(** Thread register state. *)
val registers : t -> tid:int -> Elfie_machine.Context.t

(** Read memory; [None] if any byte is unmapped. *)
val read_mem : t -> int64 -> int -> bytes option

(** Disassemble [count] instructions at [addr]. *)
val disassemble : t -> addr:int64 -> count:int -> (int64 * Elfie_isa.Insn.t) list

(** Nearest symbol at or below [addr], with the offset. *)
val symbol_near : t -> int64 -> (string * int64) option

(** Thread states, like gdb's [info threads]. *)
val thread_summary : t -> (int * string * int64) list
    (** (tid, state, rip) *)

(** {2 Time travel} *)

(** Debugger steps executed since launch — the position on the
    timeline that {!reverse_stepi} moves. *)
val icount : t -> int

(** Copy-on-write waypoints currently retained (step 0 always is). *)
val waypoint_count : t -> int

(** Step backwards [n] instructions (default 1; at least one). The
    process state afterwards is bit-identical to a fresh run stepped
    forward to the same position. Returns [History_begin] when the
    travel lands on (or starts at) step 0, [Step_done] otherwise.
    History and waypoints past the new position are discarded; stepping
    forward again re-records them. *)
val reverse_stepi : ?n:int -> t -> stop_reason

(** Run backwards to the most recent earlier state in which the thread
    about to execute sat on a breakpoint — where a forward [continue_]
    would have stopped. Returns [History_begin] (positioned at the
    oldest retained waypoint) when no such state exists. *)
val reverse_continue : t -> stop_reason

(** Hot-region profiling: deterministic PC sampling and per-basic-block
    instruction counts.

    The observability twin of the BBV machinery: a profiler fed the
    retired instructions ({!note_block}) samples the program counter every
    [interval] instructions into a hot-address histogram and charges
    every instruction to its basic block (a block ends at a branch,
    call or syscall). Sampling is count-driven, not timer-driven, so
    the profile of a seeded run is bit-for-bit reproducible, however
    its instructions are split into runs. A profiler is
    domain-safe: all feeding and reading locks, so one global profiler
    can serve machines on several {!Elfie_util.Pool} domains.

    The {e global} profiler slot is how [--profile] reaches execution:
    when set, {!Elfie_core.Elfie_runner} and the replayer attach it to
    every machine they create. *)

type t

(** [create ()] makes an empty profiler sampling every [interval]
    retired instructions (default 97 — co-prime with common loop
    lengths). Raises [Invalid_argument] if [interval <= 0]. *)
val create : ?interval:int -> unit -> t

(** Feed [n] back-to-back instructions [pcs.(0 .. n-1)] of one
    straight-line run (the machine's block-observer shape;
    [ends_block] marks a run whose last instruction terminates its
    block, a branch, call or syscall). State-for-state equivalent to
    feeding the instructions one at a time, at one lock acquisition and
    one block-count update per run — the shape the hook-free
    translated-block path reports through
    [Machine.set_block_observer]. *)
val note_block :
  t -> tid:int -> pcs:int64 array -> n:int -> ends_block:bool -> unit

(** Retired instructions seen / PC samples taken. *)
val instructions : t -> int64

val samples : t -> int64

(** Top-[k] sampled PCs, by sample count descending (ties broken by
    ascending address — deterministic). *)
val hot_pcs : ?k:int -> t -> (int64 * int64) list

(** Top-[k] basic blocks by instructions executed. *)
val hot_blocks : ?k:int -> t -> (int64 * int64) list

(** The top-K hot-region report, human-readable. *)
val report : ?k:int -> t -> string

val reset : t -> unit

(** {1 The global profiler} *)

val set_global : t option -> unit
val global : unit -> t option

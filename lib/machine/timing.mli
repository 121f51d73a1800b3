(** The machine's built-in "hardware" timing model.

    Native ELFie runs need a ground-truth cycles-per-instruction figure,
    like the real hardware performance counters the paper reads with
    [perf]. This model charges a base cost per instruction class plus
    memory-hierarchy penalties (L1D/L2/LLC, LRU) and a bimodal
    branch-predictor penalty. It is deliberately simple: experiments only
    rely on CPI *differences between program phases* being real, which
    cache and branch behaviour provide. Its parameters are
    Gainestown-flavoured, the paper's native testbed stand-in.

    Only native machines hold one ({!Machine.create}'s [native]). A
    simulator's machine charges {!ins_cost} alone, because the simulator
    models memory and branches itself. *)

(** The bimodal branch predictor of this model and of every simulator
    core: 4096 2-bit saturating counters, indexed by bits 1..12 of the
    branch pc, each starting at 2 (weakly taken). *)
module Predictor : sig
  type t

  val create : unit -> t

  (** [mispredicted t ~pc ~taken] predicts the branch at [pc] from its
      counter's high bit, updates the counter towards [taken] and says
      whether the prediction was wrong. *)
  val mispredicted : t -> pc:int64 -> taken:bool -> bool
end

type t

val create : unit -> t

(** Independent clone (caches + predictor); identical future costs,
    no shared mutable state. Used by machine snapshots. *)
val copy : t -> t

(** Base cost of executing one instruction of a class, charged by every
    machine, native or not. *)
val ins_cost : Elfie_isa.Insn.klass -> int

(** [mem_cost t (Cache.key addr)]: penalty cycles for a data access at
    [addr]. The address arrives as an immediate so that compiled code
    can pass it without boxing. *)
val mem_cost : t -> int -> int

(** Penalty cycles for a branch, call or return at [pc] that was
    [taken] (always [true] except for a falling-through conditional
    branch), updating the predictor. *)
val branch_cost : t -> pc:int64 -> taken:bool -> int

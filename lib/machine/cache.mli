(** Set-associative cache model with LRU replacement.

    Shared by the machine's built-in "hardware" timing model and by the
    Sniper/CoreSim/gem5 simulator substrates. Purely a hit/miss model:
    no data is stored, only tags. *)

type config = {
  size_bytes : int;
  ways : int;
  line_bytes : int;  (** power of two *)
}

val config : size_bytes:int -> ways:int -> line_bytes:int -> config

type t

(** [create cfg] builds an empty cache. *)
val create : config -> t

(** [access t addr] returns [true] on hit and updates LRU state;
    on miss the line is filled. *)
val access : t -> int64 -> bool

(** Independent structural clone — identical future hit/miss behaviour,
    identical stats, no shared mutable state (machine snapshots). *)
val copy : t -> t

val hits : t -> int
val misses : t -> int

(** Drop all lines (e.g. a TLB flush perturbation), keeping stats. *)
val flush : t -> unit

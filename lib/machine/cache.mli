(** Set-associative cache model with LRU replacement.

    Shared by the machine's built-in "hardware" timing model and by the
    Sniper/CoreSim/gem5 simulator substrates. Purely a hit/miss model:
    no data is stored, only tags, kept in flat bytes so that creating
    and copying a cache is a memset and a memcpy the GC never scans. *)

type config = {
  size_bytes : int;
  ways : int;
  line_bytes : int;  (** power of two, at least 2 *)
}

(** Raises [Invalid_argument] unless all three sizes are positive,
    [line_bytes] is a power of two of at least 2 and [size_bytes] is a
    multiple of [ways * line_bytes]. *)
val config : size_bytes:int -> ways:int -> line_bytes:int -> config

type t

(** [create cfg] builds an empty cache. *)
val create : config -> t

(** [key addr] is [addr] shifted right by one bit, as an [int]: the
    address as an immediate, bit 63 included (bit 0 never selects a
    line). Compiled code computes it inline from an unboxed address. *)
val key : int64 -> int

(** [access t (key addr)] returns [true] on hit and updates LRU state;
    on miss the line is filled. The line is
    [Int64.shift_right_logical addr line_bits]. *)
val access : t -> int -> bool

(** Independent structural clone — identical future hit/miss behaviour,
    identical stats, no shared mutable state (machine snapshots). *)
val copy : t -> t

val hits : t -> int
val misses : t -> int

(** Drop all lines (e.g. a TLB flush perturbation), keeping stats. *)
val flush : t -> unit

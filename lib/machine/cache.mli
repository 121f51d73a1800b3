(** Set-associative cache model with LRU replacement.

    Shared by the machine's built-in "hardware" timing model and by the
    Sniper/CoreSim/gem5 simulator substrates. Purely a hit/miss model:
    no data is stored, only tags, kept in flat bytes the GC never scans.
    A set holds its filled ways' tags in recency order, most recent
    first, and counts them: a lookup scans only those and moves its line
    to the front, a miss into a full set drops the last tag (the least
    recently used line) with no recency stamps and no victim scan, and
    creating or flushing a cache clears only the per-set counts, not the
    ways. *)

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

(** Drop all lines (e.g. a TLB flush perturbation), keeping stats: every
    set's fill count returns to 0. *)
val flush : t -> unit

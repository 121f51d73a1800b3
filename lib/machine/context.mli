(** Per-thread architectural register state.

    Mirrors what a pinball [.reg] file captures: general-purpose
    registers, instruction pointer, flags, FS/GS bases, and the
    XSAVE-style extended state (here: 16 x 128-bit vector registers).
    The extended state has a fixed binary layout ({!xsave_size} bytes)
    loaded and stored by the [Ldctx]/[Stctx] instructions, mirroring
    XRSTOR/XSAVE. *)

type t = {
  gprs : Bytes.t;
      (** 16 × 8-byte host-endian register slots, indexed by
          [8 * Reg.gpr_index]. A byte buffer rather than an
          [int64 array] so register reads/writes move unboxed values
          (no allocation, no write barrier on the micro-ops' hot
          path); access it through {!get}/{!set}/{!geti}/{!seti} or the
          raw-buffer pair {!bget}/{!bset}. *)
  mutable rip : int64;
  flags : Elfie_isa.Reg.flags;
  mutable fs_base : int64;
  mutable gs_base : int64;
  xmm : bytes;  (** [16 * Reg.xmm_count] bytes of vector state *)
}

val create : unit -> t
val copy : t -> t
val get : t -> Elfie_isa.Reg.gpr -> int64
val set : t -> Elfie_isa.Reg.gpr -> int64 -> unit

(** Index-based register access ([Reg.gpr_index] order). *)
val geti : t -> int -> int64

val seti : t -> int -> int64 -> unit

(** Unchecked accessors over the raw {!field-gprs} buffer, for compiled
    code that hoists the buffer out of its inner loop. [i] is a register
    index in [0, 15]. *)
val bget : Bytes.t -> int -> int64

val bset : Bytes.t -> int -> int64 -> unit

(** Lane accessors for the vector unit: [xmm_lane ctx i lane] reads
    64-bit lane 0 or 1 of register [i]. *)
val xmm_lane : t -> int -> int -> int64

val set_xmm_lane : t -> int -> int -> int64 -> unit

(** Byte size of the serialized extended-state area. *)
val xsave_size : int

(** Serialize the extended state (vector registers only, like the
    FXSAVE/XSAVE area of the paper's context structure part one). *)
val xsave : t -> bytes

(** Load extended state from an XSAVE image; raises [Invalid_argument]
    on short input. *)
val xrstor : t -> bytes -> unit

(** Full-context serialization, used by pinball [.reg] files. *)
val to_bytes : t -> bytes

val of_bytes : bytes -> t
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

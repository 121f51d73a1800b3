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
          [8 * Reg.gpr_index], then {!zero_slot}. A byte buffer rather
          than an [int64 array] so register reads/writes move unboxed
          values (no allocation, no write barrier on the micro-ops' hot
          path); access it through {!get}/{!set}/{!geti}/{!seti} or the
          slot primitives {!slot_get}/{!slot_set}; then RIP, at
          {!rip_slot}. *)
  flags : Elfie_isa.Reg.flags;
  mutable fs_base : int64;
  mutable gs_base : int64;
  xmm : bytes;  (** [16 * Reg.xmm_count] bytes of vector state *)
}

val create : unit -> t
val copy : t -> t
val get : t -> Elfie_isa.Reg.gpr -> int64
val set : t -> Elfie_isa.Reg.gpr -> int64 -> unit

(** {2 Slot primitives for compiled code}

    Unchecked accessors over the raw {!field-gprs} buffer by byte
    offset. They are primitives, so they compile inline in the calling
    module and move unboxed values even where cross-module inlining is
    off (dune's default profile builds with [-opaque]); a function or
    closure taking or returning an [int64] would box it on every
    call. *)

(** Byte offset of a register's slot: [8 * Reg.gpr_index r]. *)
val slot : Elfie_isa.Reg.gpr -> int

(** A slot after the sixteen registers that always reads 0 and that
    nothing writes: the missing base or index of an addressing mode, so
    every effective address is one [base + (index lsl scale) + disp]. *)
val zero_slot : int

(** The slot of the instruction pointer, after {!zero_slot}: compiled
    code stores a computed branch target there unboxed. *)
val rip_slot : int

val rip : t -> int64
val set_rip : t -> int64 -> unit

external slot_get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external slot_set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

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

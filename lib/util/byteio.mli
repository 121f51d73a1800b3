(** Little-endian byte-level readers and writers.

    Every binary codec in this project (VX86 instruction encoding, ELF64
    images, pinball files) is built on these two cursors. All multi-byte
    quantities are little-endian, matching ELF64 on x86-64. *)

(** Raised by the reader on any attempt to read past the end of the
    underlying buffer. Carries a description of what was being read. *)
exception Truncated of string

(** Mutable write cursor producing a growable byte buffer. *)
module Writer : sig
  type t

  val create : ?capacity:int -> unit -> t

  (** Number of bytes written so far. *)
  val length : t -> int

  val u8 : t -> int -> unit
  val u16 : t -> int -> unit
  val u32 : t -> int -> unit
  val u64 : t -> int64 -> unit

  (** [i32 w v] writes a signed 32-bit value in two's complement;
      raises [Invalid_argument] if [v] is out of range. *)
  val i32 : t -> int -> unit

  val bytes : t -> bytes -> unit
  val string : t -> string -> unit

  (** [zeros w n] writes [n] zero bytes. *)
  val zeros : t -> int -> unit

  (** [pad_to w n] writes zero bytes until [length w = n]; raises
      [Invalid_argument] if already past [n]. *)
  val pad_to : t -> int -> unit

  val contents : t -> bytes
end

(** Read cursor over an immutable byte string. *)
module Reader : sig
  type t

  val of_bytes : bytes -> t
  val of_string : string -> t

  (** Current offset from the start of the buffer. *)
  val pos : t -> int

  val remaining : t -> int

  (** [seek r off] moves the cursor to absolute offset [off]. *)
  val seek : t -> int -> unit

  val u8 : t -> int
  val u16 : t -> int
  val u32 : t -> int
  val u64 : t -> int64

  (** Signed 32-bit read (sign-extended to [int]). *)
  val i32 : t -> int

  val bytes : t -> int -> bytes

  (** [string_n r n] reads exactly [n] bytes as a string. *)
  val string_n : t -> int -> string
end

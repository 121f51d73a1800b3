open Elfie_isa

(* The register file lives in a flat byte buffer rather than an
   [int64 array]: int64 array elements are boxed, so every register
   write would allocate (the boxed result) and run the write barrier.
   Bytes accessors move unboxed int64 values directly — a register
   write from a micro-op is a plain 8-byte store.
   In-memory order is host-native (the accessor pair is internally
   consistent on any host); serialization fixes little-endian. *)
external slot_get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external slot_set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

type t = {
  gprs : Bytes.t;
  flags : Reg.flags;
  mutable fs_base : int64;
  mutable gs_base : int64;
  xmm : bytes;
}

let gpr_count = 16
let xsave_size = 16 * Reg.xmm_count
let slot r = Reg.gpr_index r lsl 3

(* One slot past the sixteen registers that nothing writes: the base or
   index of an addressing mode that has none. *)
let zero_slot = gpr_count lsl 3

(* RIP's slot, after the zero slot: a computed branch target is stored
   unboxed, as registers are. *)
let rip_slot = zero_slot + 8
let rip t = slot_get t.gprs rip_slot
let set_rip t v = slot_set t.gprs rip_slot v

let create () =
  {
    gprs = Bytes.make (rip_slot + 8) '\000';
    flags = Reg.fresh_flags ();
    fs_base = 0L;
    gs_base = 0L;
    xmm = Bytes.make xsave_size '\000';
  }

let copy t =
  {
    gprs = Bytes.copy t.gprs;
    flags = Reg.copy_flags t.flags;
    fs_base = t.fs_base;
    gs_base = t.gs_base;
    xmm = Bytes.copy t.xmm;
  }

let[@inline] geti t i = slot_get t.gprs (i lsl 3)
let[@inline] seti t i v = slot_set t.gprs (i lsl 3) v
let get t r = geti t (Reg.gpr_index r)
let set t r v = seti t (Reg.gpr_index r) v

let xmm_lane t i lane = Bytes.get_int64_le t.xmm ((i * 16) + (lane * 8))
let set_xmm_lane t i lane v = Bytes.set_int64_le t.xmm ((i * 16) + (lane * 8)) v

let xsave t = Bytes.copy t.xmm

let xrstor t img =
  if Bytes.length img < xsave_size then invalid_arg "Context.xrstor: short image";
  Bytes.blit img 0 t.xmm 0 xsave_size

let to_bytes t =
  let w = Elfie_util.Byteio.Writer.create ~capacity:(xsave_size + 160) () in
  for i = 0 to gpr_count - 1 do
    Elfie_util.Byteio.Writer.u64 w (geti t i)
  done;
  Elfie_util.Byteio.Writer.u64 w (rip t);
  Elfie_util.Byteio.Writer.u64 w (Reg.flags_to_word t.flags);
  Elfie_util.Byteio.Writer.u64 w t.fs_base;
  Elfie_util.Byteio.Writer.u64 w t.gs_base;
  Elfie_util.Byteio.Writer.bytes w t.xmm;
  Elfie_util.Byteio.Writer.contents w

let of_bytes b =
  let r = Elfie_util.Byteio.Reader.of_bytes b in
  let t = create () in
  for i = 0 to gpr_count - 1 do
    seti t i (Elfie_util.Byteio.Reader.u64 r)
  done;
  set_rip t (Elfie_util.Byteio.Reader.u64 r);
  let fl = Reg.flags_of_word (Elfie_util.Byteio.Reader.u64 r) in
  t.flags.zf <- fl.zf;
  t.flags.sf <- fl.sf;
  t.flags.cf <- fl.cf;
  t.flags.ovf <- fl.ovf;
  t.fs_base <- Elfie_util.Byteio.Reader.u64 r;
  t.gs_base <- Elfie_util.Byteio.Reader.u64 r;
  xrstor t (Elfie_util.Byteio.Reader.bytes r xsave_size);
  t

let equal a b =
  Bytes.equal a.gprs b.gprs
  && Reg.flags_to_word a.flags = Reg.flags_to_word b.flags
  && a.fs_base = b.fs_base && a.gs_base = b.gs_base
  && Bytes.equal a.xmm b.xmm

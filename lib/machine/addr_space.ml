type access = Read | Write | Exec

exception Fault of { addr : int64; access : access }

let page_bits = 12
let page_size = 1 lsl page_bits
let page_mask = Int64.of_int (page_size - 1)
let page_base addr = Int64.logand addr (Int64.lognot page_mask)
let page_number addr = Int64.shift_right_logical addr page_bits
let offset_in_page addr = Int64.to_int (Int64.logand addr page_mask)

(* A page carries its backing store plus a code bit: once the executor
   has decoded instructions out of a page, any later write to it must
   bump the generation counter so translated-block caches invalidate
   (self-modifying code). The bit makes that a single load on the write
   path instead of a code-range lookup.

   The [shared] bit is the copy-on-write machinery: [freeze] marks every
   page shared and records the byte pointers; from then on the frozen
   bytes are immutable by contract, and the first write through any
   space holding them swaps in a private copy first ([unshare], reached
   from [dirty], which every write path already goes through). A page
   record itself is never shared between spaces — only the frozen bytes
   are — so swapping [data] inside a record is invisible to every other
   space and to the soft-TLB, which caches records, not bytes. *)
type page = { mutable data : bytes; mutable is_code : bool; mutable shared : bool }

(* Soft-TLB: a small direct-mapped cache of recent page-number ->
   page translations in front of the hash table. Only [unmap] can make
   an entry stale (mapping never replaces an existing page), so entries
   are flushed wholesale there. Tags are page numbers as immediate
   [int]s (a 64-bit address shifted by the page bits fits 52 bits), so
   the probe is pointer- and allocation-free. *)
let tlb_bits = 6
let tlb_size = 1 lsl tlb_bits
let no_page = { data = Bytes.create 0; is_code = false; shared = false }

type t = {
  pages : (int64, page) Hashtbl.t;
  mutable generation : int;
  (* Writes that landed in code pages, separately from [generation]
     (which also counts map/unmap): between two system calls the only
     way [generation] can move is a code-page write, so executors can
     poll this single field as the "has anything been dirtied since
     translation" fast-path flag. *)
  mutable code_writes : int;
  (* Pages lazily privatised by a write to shared (frozen) backing —
     the fork cost actually paid, in pages touched. *)
  mutable cow_copies : int;
  tlb_tags : int array;  (* page number, or -1 for empty *)
  tlb_pages : page array;
}

let create () =
  {
    pages = Hashtbl.create 256;
    generation = 0;
    code_writes = 0;
    cow_copies = 0;
    tlb_tags = Array.make tlb_size (-1);
    tlb_pages = Array.make tlb_size no_page;
  }

let tlb_flush t =
  Array.fill t.tlb_tags 0 tlb_size (-1);
  Array.fill t.tlb_pages 0 tlb_size no_page

(* TLB-accelerated page lookup by immediate page number; raises
   [Not_found] when unmapped. Page numbers are non-negative
   ([page_number] shifts logically), so the -1 empty tag can never
   false-hit. *)
let[@inline] lookup_i t pni =
  let slot = pni land (tlb_size - 1) in
  if Array.unsafe_get t.tlb_tags slot = pni then
    Array.unsafe_get t.tlb_pages slot
  else begin
    let page = Hashtbl.find t.pages (Int64.of_int pni) in
    Array.unsafe_set t.tlb_tags slot pni;
    Array.unsafe_set t.tlb_pages slot page;
    page
  end

let[@inline] lookup t pn = lookup_i t (Int64.to_int pn)

(* Immediate-domain page number / page offset: [Int64.to_int] keeps the
   low 63 bits, which covers both (the shift result is at most 52 bits;
   the offset only needs the low 12). *)
let[@inline] page_number_i addr =
  Int64.to_int (Int64.shift_right_logical addr page_bits)

let[@inline] offset_i addr = Int64.to_int addr land (page_size - 1)

let find t addr =
  match lookup t (page_number addr) with
  | page -> Some page
  | exception Not_found -> None

let is_mapped t addr = Hashtbl.mem t.pages (page_number addr)

(* Page numbers covering [addr, addr+len). *)
let range_pages addr len =
  if len <= 0 then []
  else
    let first = page_number addr in
    let last = page_number (Int64.add addr (Int64.of_int (len - 1))) in
    let rec go n acc = if n < first then acc else go (Int64.sub n 1L) (n :: acc) in
    go last []

let map t ~addr ~len =
  t.generation <- t.generation + 1;
  List.iter
    (fun n ->
      if not (Hashtbl.mem t.pages n) then
        Hashtbl.replace t.pages n
          { data = Bytes.make page_size '\000'; is_code = false; shared = false })
    (range_pages addr len)

let unmap t ~addr ~len =
  t.generation <- t.generation + 1;
  List.iter (Hashtbl.remove t.pages) (range_pages addr len);
  tlb_flush t

let note_code t ~addr ~len =
  List.iter
    (fun n ->
      match Hashtbl.find_opt t.pages n with
      | Some page -> page.is_code <- true
      | None -> ())
    (range_pages addr len)

(* Copy-on-write: the first write to a page whose bytes are frozen
   swaps in a private copy. Out of line — the hot write paths only pay
   the [shared] load. *)
let unshare t page =
  page.data <- Bytes.copy page.data;
  page.shared <- false;
  t.cow_copies <- t.cow_copies + 1

(* Writes into pages holding decoded instructions invalidate block
   caches; plain data writes leave the generation alone. Every write
   path goes through here before mutating, so this is also the single
   copy-on-write unshare point. *)
let[@inline] dirty t page =
  if page.shared then unshare t page;
  if page.is_code then begin
    t.generation <- t.generation + 1;
    t.code_writes <- t.code_writes + 1
  end

let read_u8 t addr =
  match lookup_i t (page_number_i addr) with
  | page -> Char.code (Bytes.unsafe_get page.data (offset_i addr))
  | exception Not_found -> raise (Fault { addr; access = Read })

let write_u8 t addr v =
  match lookup_i t (page_number_i addr) with
  | page ->
      dirty t page;
      Bytes.set page.data (offset_i addr) (Char.chr (v land 0xff))
  | exception Not_found -> raise (Fault { addr; access = Write })

(* Fast paths for accesses fully inside one page. *)
let read t addr width =
  let off = offset_in_page addr in
  match find t addr with
  | Some page when off + width <= page_size -> (
      let data = page.data in
      match width with
      | 1 -> Int64.of_int (Char.code (Bytes.get data off))
      | 2 -> Int64.of_int (Bytes.get_uint16_le data off)
      | 4 -> Int64.logand (Int64.of_int32 (Bytes.get_int32_le data off)) 0xffff_ffffL
      | 8 -> Bytes.get_int64_le data off
      | _ -> invalid_arg "Addr_space.read: width")
  | _ ->
      let rec go i acc =
        if i = width then acc
        else
          let b = read_u8 t (Int64.add addr (Int64.of_int i)) in
          go (i + 1) (Int64.logor acc (Int64.shift_left (Int64.of_int b) (8 * i)))
      in
      go 0 0L

let write t addr width v =
  let off = offset_in_page addr in
  match find t addr with
  | Some page when off + width <= page_size -> (
      dirty t page;
      let data = page.data in
      match width with
      | 1 -> Bytes.set_uint8 data off (Int64.to_int (Int64.logand v 0xffL))
      | 2 -> Bytes.set_uint16_le data off (Int64.to_int (Int64.logand v 0xffffL))
      | 4 -> Bytes.set_int32_le data off (Int64.to_int32 v)
      | 8 -> Bytes.set_int64_le data off v
      | _ -> invalid_arg "Addr_space.write: width")
  | _ ->
      for i = 0 to width - 1 do
        let b = Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xffL) in
        write_u8 t (Int64.add addr (Int64.of_int i)) b
      done

(* Soft-TLB probes for compiled code, by immediate page number: the
   page's bytes, or [Bytes.empty] when it is unmapped. The write probe
   makes the page writable first ([dirty]: copy-on-write unshare, and a
   generation bump for a code page). An access that crosses a page or
   finds no page goes through [read]/[write], which keep the exact fault
   address. *)
let read_page t pni =
  match lookup_i t pni with
  | page -> page.data
  | exception Not_found -> Bytes.empty

let write_page t pni =
  match lookup_i t pni with
  | page ->
      dirty t page;
      page.data
  | exception Not_found -> Bytes.empty

let read_bytes t addr len =
  let out = Bytes.create len in
  let rec go i =
    if i < len then begin
      let a = Int64.add addr (Int64.of_int i) in
      match find t a with
      | None -> raise (Fault { addr = a; access = Read })
      | Some page ->
          let off = offset_in_page a in
          let n = min (len - i) (page_size - off) in
          Bytes.blit page.data off out i n;
          go (i + n)
    end
  in
  go 0;
  out

let write_bytes t addr src =
  let len = Bytes.length src in
  let rec go i =
    if i < len then begin
      let a = Int64.add addr (Int64.of_int i) in
      match find t a with
      | None -> raise (Fault { addr = a; access = Write })
      | Some page ->
          dirty t page;
          let off = offset_in_page a in
          let n = min (len - i) (page_size - off) in
          Bytes.blit src i page.data off n;
          go (i + n)
    end
  in
  go 0

let store t addr src =
  map t ~addr ~len:(Bytes.length src);
  write_bytes t addr src

let read_avail t addr len =
  let rec usable i =
    if i >= len then len
    else
      let a = Int64.add addr (Int64.of_int i) in
      if is_mapped t a then usable (i + (page_size - offset_in_page a)) else i
  in
  let n = min len (usable 0) in
  if n <= 0 then raise (Fault { addr; access = Exec });
  read_bytes t addr n

let page_count t = Hashtbl.length t.pages

let generation t = t.generation
let code_writes t = t.code_writes
let cow_copies t = t.cow_copies

(* --- Copy-on-write snapshots --------------------------------------- *)

(* A frozen view: page numbers plus the byte pointers and code bits as
   of the freeze. The bytes are immutable from the moment they appear
   here — any space still holding them (the frozen parent included)
   copies before its next write — so the view stays exact forever at
   zero byte-copy cost. *)
type frozen = {
  f_pages : (int64 * bytes * bool) array;
  f_generation : int;
  f_code_writes : int;
}

let freeze t =
  let acc = ref [] in
  Hashtbl.iter
    (fun pn page ->
      page.shared <- true;
      acc := (pn, page.data, page.is_code) :: !acc)
    t.pages;
  let f_pages = Array.of_list !acc in
  (* Hashtbl iteration order is not specified; fix it so two freezes of
     equal spaces are structurally equal. *)
  Array.sort (fun (a, _, _) (b, _, _) -> Int64.unsigned_compare a b) f_pages;
  { f_pages; f_generation = t.generation; f_code_writes = t.code_writes }

(* O(pages) fresh 3-word records pointing at the frozen bytes — no page
   contents are copied; the fork pays per page it later writes. *)
let fork f =
  let pages = Hashtbl.create (max 256 (Array.length f.f_pages)) in
  Array.iter
    (fun (pn, data, is_code) ->
      Hashtbl.replace pages pn { data; is_code; shared = true })
    f.f_pages;
  {
    pages;
    generation = f.f_generation;
    code_writes = f.f_code_writes;
    cow_copies = 0;
    tlb_tags = Array.make tlb_size (-1);
    tlb_pages = Array.make tlb_size no_page;
  }

let frozen_page_count f = Array.length f.f_pages

(* The frozen image as [(page_base, contents)], sorted, WITHOUT copying:
   callers (checkpointing) must treat the bytes as read-only, which the
   freeze contract already guarantees machine-side. *)
let frozen_pages f =
  Array.to_list
    (Array.map (fun (pn, data, _) -> (Int64.shift_left pn page_bits, data)) f.f_pages)

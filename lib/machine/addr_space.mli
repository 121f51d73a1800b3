(** Paged virtual address space.

    Pages are 4 KiB, allocated sparsely in a hash table keyed by page
    number. Accessing an unmapped address raises {!Fault}, which the
    machine turns into a thread-level page fault — this is how a
    diverging ELFie "exits ungracefully" when it touches a page that was
    not captured in its parent pinball. *)

type access = Read | Write | Exec

exception Fault of { addr : int64; access : access }

val page_size : int
val page_bits : int

(** Base address of the page containing [addr]. *)
val page_base : int64 -> int64

type t

val create : unit -> t

(** [map t ~addr ~len] maps (zero-filled) every page overlapping
    [addr, addr+len). Already-mapped pages keep their contents. *)
val map : t -> addr:int64 -> len:int -> unit

(** [unmap t ~addr ~len] drops every page overlapping the range. *)
val unmap : t -> addr:int64 -> len:int -> unit

val is_mapped : t -> int64 -> bool

val read_u8 : t -> int64 -> int
val write_u8 : t -> int64 -> int -> unit

(** [read t addr width] reads a [width]-byte little-endian value,
    zero-extended. [width] is 1, 2, 4 or 8. May cross pages. *)
val read : t -> int64 -> int -> int64

val write : t -> int64 -> int -> int64 -> unit

(** {2 Soft-TLB probes}

    The hot path of compiled code: [read_page t pn] is the backing
    bytes of page number [pn] ([addr lsr page_bits], as an [int]), or
    [Bytes.empty] when that page is unmapped. [write_page] returns the
    bytes to write into after doing what a write to the page owes
    first: a private copy of a page still shared with a snapshot, and a
    {!generation} bump for a page marked by {!note_code}. Data is
    little-endian at its byte offset; an access that does not fit in
    the page, or finds no page, goes through {!read}/{!write}, which
    report the exact fault address. Integers cross the interface
    unboxed, so a caller compiled without cross-module inlining pays
    no allocation. *)
val read_page : t -> int -> Bytes.t

val write_page : t -> int -> Bytes.t

(** Bulk reads/writes; fault on any unmapped byte. *)
val read_bytes : t -> int64 -> int -> bytes

val write_bytes : t -> int64 -> bytes -> unit

(** Like [write_bytes] but maps missing pages first (used by loaders). *)
val store : t -> int64 -> bytes -> unit

(** Read up to [len] bytes, stopping at the first unmapped page; used by
    the instruction fetcher at mapping boundaries. *)
val read_avail : t -> int64 -> int -> bytes

val page_count : t -> int

(** {2 Copy-on-write snapshots}

    [freeze t] marks every mapped page as shared and returns an
    immutable view of the current image in O(pages) pointer work — no
    page contents are copied. From that moment the captured bytes are
    never mutated: the first write landing in a shared page (through
    [t] itself or through any fork) swaps in a private copy of that
    page first, so the frozen view stays byte-exact forever and each
    space pays only for the pages it actually touches.

    [fork f] materialises a fresh address space backed by the frozen
    bytes, again in O(pages) record allocation with zero byte copying.
    Forks are independent of each other and of the parent: the only
    shared state is the immutable frozen bytes, so forks may run on
    different domains concurrently. The fork starts with a cold
    soft-TLB and inherits the frozen generation counters. *)

type frozen

val freeze : t -> frozen
val fork : frozen -> t
val frozen_page_count : frozen -> int

(** The frozen image as [(page_base, contents)], sorted by address,
    {e aliasing} the frozen bytes (zero-copy). Callers must treat the
    bytes as read-only — the freeze contract already guarantees no
    machine will mutate them. *)
val frozen_pages : frozen -> (int64 * bytes) list

(** Pages privatised so far by writes into shared backing — the
    realised copy-on-write cost of this space, in pages. *)
val cow_copies : t -> int

(** [note_code t ~addr ~len] marks every mapped page overlapping
    [addr, addr+len) as holding decoded instructions. The executor calls
    this when it translates a block; from then on any write landing in
    those pages bumps {!generation} (page-granularity self-modifying
    code detection). *)
val note_code : t -> addr:int64 -> len:int -> unit

(** Monotonically increasing counter bumped on every [map]/[unmap]/
    [store] and on every write into a page previously marked by
    {!note_code}; lets the executor invalidate translated-block and
    decoded-instruction caches, including under self-modifying code. *)
val generation : t -> int

(** Count of writes that landed in {!note_code}-marked pages — the
    subset of {!generation} bumps caused by dirtying code rather than by
    mapping changes. Between system calls no page can be mapped or
    unmapped, so the executor's composed blocks poll this single field
    as their "code dirtied since the block started" fast-path flag:
    equality with the value sampled at block entry proves the
    translation is still valid mid-block. *)
val code_writes : t -> int

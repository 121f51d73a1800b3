type config = { size_bytes : int; ways : int; line_bytes : int }

let config ~size_bytes ~ways ~line_bytes =
  if size_bytes <= 0 || ways <= 0 || line_bytes <= 0 then
    invalid_arg "Cache: non-positive geometry";
  (* Lines of at least two bytes: {!key} drops address bit 0. *)
  if line_bytes < 2 || line_bytes land (line_bytes - 1) <> 0 then
    invalid_arg "Cache: line size";
  if size_bytes mod (ways * line_bytes) <> 0 then invalid_arg "Cache: geometry";
  { size_bytes; ways; line_bytes }

(* Tags, recency and per-set stamps live in flat bytes, eight per entry,
   host-native order (they are never serialized): creating one is a
   memset, copying one a memcpy, and the GC never scans them. An
   [int array] of the same size is scanned on every major slice and
   built or copied one element at a time. *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] geti b i = Int64.to_int (get64 b (i lsl 3))
let[@inline] seti b i v = set64 b (i lsl 3) (Int64.of_int v)

type t = {
  cfg : config;
  sets : int;
  set_mask : int;  (* sets - 1 when sets is a power of two (0 for one set), else -1 *)
  key_bits : int;  (* line = key lsr key_bits *)
  (* Line numbers fit an OCaml [int]: a 64-bit address shifted right by
     the line bits (>= 1) is at most 63 bits. -1 = invalid (no line
     number is negative), the all-ones fill. *)
  tags : Bytes.t;  (* sets * ways *)
  (* Recency as per-set timestamps: larger = more recent, victim = the
     way with the smallest stamp. Exactly the LRU order an age vector
     maintains (stamps are distinct within a set once filled, and the
     fill-order tie-break matches), but a hit updates one slot instead
     of re-aging the whole set. *)
  lru : Bytes.t;  (* stamp per way *)
  stamp : Bytes.t;  (* per-set monotone clock *)
  mutable hits : int;
  mutable misses : int;
  (* Most-recently-accessed line. Every access leaves its line resident
     (hit, or miss + fill), so a repeat of this line is a guaranteed hit
     that can skip the tag scan. Skipping its stamp update is
     order-preserving: back-to-back accesses to one line mean nothing
     else in that set moved, so the line already holds the strictly
     largest stamp and every future victim choice is unchanged. *)
  mutable mru_line : int;
}

let create cfg =
  let sets = cfg.size_bytes / (cfg.ways * cfg.line_bytes) in
  let line_bits =
    let rec go n b = if n = 1 then b else go (n lsr 1) (b + 1) in
    go cfg.line_bytes 0
  in
  let entries = sets * cfg.ways in
  {
    cfg;
    sets;
    set_mask = (if sets land (sets - 1) = 0 then sets - 1 else -1);
    key_bits = line_bits - 1;
    tags = Bytes.make (entries * 8) '\255';
    lru = Bytes.make (entries * 8) '\000';
    stamp = Bytes.make (sets * 8) '\000';
    hits = 0;
    misses = 0;
    mru_line = -1;
  }

let key addr = Int64.to_int (Int64.shift_right_logical addr 1)

let access t key =
  (* [key] is the address shifted right by one, so this is the address
     shifted right by the line bits, bit 63 included. *)
  let line = key lsr t.key_bits in
  if line = t.mru_line then begin
    (* Repeat of the last access: resident by construction and already
       the most recent in its set. *)
    t.hits <- t.hits + 1;
    true
  end
  else begin
    t.mru_line <- line;
    let set =
      (* Lines are non-negative, so masking equals [mod] for power-of-two
         set counts (every default geometry, one set included). *)
      if t.set_mask >= 0 then line land t.set_mask else line mod t.sets
    in
    let ways = t.cfg.ways in
    let base = set * ways in
    let hit_way = ref (-1) in
    let w = ref 0 in
    while !hit_way < 0 && !w < ways do
      (* A line occupies at most one way (inserted only after a full-scan
         miss), so stopping at the first match is exact. *)
      if geti t.tags (base + !w) = line then hit_way := !w;
      incr w
    done;
    let now = geti t.stamp set + 1 in
    seti t.stamp set now;
    if !hit_way >= 0 then begin
      t.hits <- t.hits + 1;
      seti t.lru (base + !hit_way) now;
      true
    end
    else begin
      t.misses <- t.misses + 1;
      (* Evict the least recently used way. *)
      let victim = ref 0 in
      for w = 1 to ways - 1 do
        if geti t.lru (base + w) < geti t.lru (base + !victim) then victim := w
      done;
      seti t.tags (base + !victim) line;
      seti t.lru (base + !victim) now;
      false
    end
  end

(* Structural duplicate: tags, recency and stats all copied, so the
   clone hits and misses exactly as the original would from here on.
   Cost is proportional to the configured geometry, not to traffic. *)
let copy t =
  {
    t with
    tags = Bytes.copy t.tags;
    lru = Bytes.copy t.lru;
    stamp = Bytes.copy t.stamp;
  }

let hits t = t.hits
let misses t = t.misses

let flush t =
  t.mru_line <- -1;
  Bytes.fill t.tags 0 (Bytes.length t.tags) '\255'

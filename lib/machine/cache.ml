type config = { size_bytes : int; ways : int; line_bytes : int }

let config ~size_bytes ~ways ~line_bytes =
  if line_bytes land (line_bytes - 1) <> 0 then invalid_arg "Cache: line size";
  if size_bytes mod (ways * line_bytes) <> 0 then invalid_arg "Cache: geometry";
  { size_bytes; ways; line_bytes }

type t = {
  cfg : config;
  sets : int;
  set_mask : int;  (* sets - 1 when sets is a power of two, else 0 *)
  line_bits : int;
  (* Line numbers fit an OCaml [int]: a 64-bit address shifted right by
     the line bits (>= 1) is at most 63 bits. Storing them as immediates
     makes the tag scan pointer-free (an [int64 array] holds boxed
     elements) and the fill a plain store. -1 = invalid (no line number
     is negative). *)
  tags : int array;  (* sets * ways *)
  (* Recency as per-set timestamps: larger = more recent, victim = the
     way with the smallest stamp. Exactly the LRU order the previous
     age-vector encoding maintained (stamps are distinct within a set
     once filled, and the fill-order tie-break matches), but a hit
     updates one slot instead of re-aging the whole set. *)
  lru : int array;  (* stamp per way *)
  stamp : int array;  (* per-set monotone clock *)
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
  {
    cfg;
    sets;
    set_mask = (if sets land (sets - 1) = 0 then sets - 1 else 0);
    line_bits;
    tags = Array.make (sets * cfg.ways) (-1);
    lru = Array.make (sets * cfg.ways) 0;
    stamp = Array.make sets 0;
    hits = 0;
    misses = 0;
    mru_line = -1;
  }

let access t addr =
  let line = Int64.to_int (Int64.shift_right_logical addr t.line_bits) in
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
         set counts (every default geometry). *)
      if t.set_mask <> 0 then line land t.set_mask else line mod t.sets
    in
    let ways = t.cfg.ways in
    let base = set * ways in
    let hit_way = ref (-1) in
    let w = ref 0 in
    while !hit_way < 0 && !w < ways do
      (* A line occupies at most one way (inserted only after a full-scan
         miss), so stopping at the first match is exact. *)
      if Array.unsafe_get t.tags (base + !w) = line then hit_way := !w;
      incr w
    done;
    let now = Array.unsafe_get t.stamp set + 1 in
    Array.unsafe_set t.stamp set now;
    if !hit_way >= 0 then begin
      t.hits <- t.hits + 1;
      Array.unsafe_set t.lru (base + !hit_way) now;
      true
    end
    else begin
      t.misses <- t.misses + 1;
      (* Evict the least recently used way. *)
      let victim = ref 0 in
      for w = 1 to ways - 1 do
        if Array.unsafe_get t.lru (base + w)
           < Array.unsafe_get t.lru (base + !victim)
        then victim := w
      done;
      Array.unsafe_set t.tags (base + !victim) line;
      Array.unsafe_set t.lru (base + !victim) now;
      false
    end
  end

(* Structural duplicate: tags, recency and stats all copied, so the
   clone hits and misses exactly as the original would from here on.
   Cost is proportional to the configured geometry, not to traffic. *)
let copy t =
  {
    t with
    tags = Array.copy t.tags;
    lru = Array.copy t.lru;
    stamp = Array.copy t.stamp;
  }

let hits t = t.hits
let misses t = t.misses

let flush t =
  t.mru_line <- -1;
  Array.fill t.tags 0 (Array.length t.tags) (-1)

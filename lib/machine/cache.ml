type config = { size_bytes : int; ways : int; line_bytes : int }

let config ~size_bytes ~ways ~line_bytes =
  if size_bytes <= 0 || ways <= 0 || line_bytes <= 0 then
    invalid_arg "Cache: non-positive geometry";
  (* Lines of at least two bytes: {!key} drops address bit 0. *)
  if line_bytes < 2 || line_bytes land (line_bytes - 1) <> 0 then
    invalid_arg "Cache: line size";
  if size_bytes mod (ways * line_bytes) <> 0 then invalid_arg "Cache: geometry";
  { size_bytes; ways; line_bytes }

(* Tags and fill counts live in flat bytes, eight per entry,
   host-native order (they are never serialized): copying one is a
   memcpy, and the GC never scans them. An [int array] of the same size
   is scanned on every major slice and built or copied one element at a
   time. *)
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
     the line bits (>= 1) is at most 63 bits. Ways [0, fill) of a set
     hold its lines in recency order, most recent first, so the least
     recently used line is the last; the rest of the set is never read,
     so it starts uninitialised. *)
  tags : Bytes.t;  (* sets * ways *)
  fill : Bytes.t;  (* filled ways per set *)
  mutable hits : int;
  mutable misses : int;
  (* Most-recently-accessed line. Every access leaves its line at the
     front of its set (hit, or miss + fill), so a repeat of this line is
     a hit that changes no set and can skip the scan. *)
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
    set_mask = (if sets land (sets - 1) = 0 then sets - 1 else -1);
    key_bits = line_bits - 1;
    tags = Bytes.create (sets * cfg.ways * 8);
    fill = Bytes.make (sets * 8) '\000';
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
    let base = set * t.cfg.ways in
    let fill = geti t.fill set in
    (* Move to front in one pass: each scanned way takes the tag in
       front of it and way 0 takes [line]. The pass stops at [line] (a
       hit: a set holds a line at most once, and the ways behind it keep
       their tags) or after the last filled way, whose tag is then left
       over: it moves into way [fill], or falls off a full set as its
       least recently used line. *)
    let carry = ref line and w = ref 0 and hit = ref false in
    while (not !hit) && !w < fill do
      let tag = geti t.tags (base + !w) in
      seti t.tags (base + !w) !carry;
      if tag = line then hit := true else carry := tag;
      incr w
    done;
    if !hit then t.hits <- t.hits + 1
    else begin
      t.misses <- t.misses + 1;
      if fill < t.cfg.ways then begin
        seti t.tags (base + fill) !carry;
        seti t.fill set (fill + 1)
      end
    end;
    !hit
  end

(* Structural duplicate: tags, fill counts and stats all copied, so the
   clone hits and misses exactly as the original would from here on.
   Cost is proportional to the configured geometry, not to traffic. *)
let copy t = { t with tags = Bytes.copy t.tags; fill = Bytes.copy t.fill }

let hits t = t.hits
let misses t = t.misses

let flush t =
  t.mru_line <- -1;
  Bytes.fill t.fill 0 (Bytes.length t.fill) '\000'

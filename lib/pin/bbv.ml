type slice = {
  index : int;
  vector : (int64 * int) array;
  instructions : int64;
}

type profile = {
  slices : slice list;
  slice_size : int64;
  total_instructions : int64;
}

(* --- observability ------------------------------------------------------ *)

let m_slices =
  Elfie_obs.Metrics.counter "elfie_bbv_slices_total"
    ~help:"BBV slices emitted by profiling runs"

let m_instructions =
  Elfie_obs.Metrics.counter "elfie_bbv_instructions_total"
    ~help:"Instructions attributed to basic-block vectors"

let m_observer_calls =
  Elfie_obs.Metrics.counter "elfie_bbv_observer_calls_total"
    ~help:"Block-observer callbacks consumed by the block-driven collector"

(* --- accumulation state ------------------------------------------------- *)

(* Block heads are interned to dense integer indices in an open-addressing
   table that persists across slices: the set of block heads a program
   touches is small and stable, so the per-slice work reduces to plain
   [int array] bumps with no boxed-int64 hashing on the hot path. The
   table is probed only when a thread starts a new block. *)

type state = {
  (* Interning table: [tbl_idx.(i) = -1] marks an empty slot; otherwise
     [tbl_keys.(i)] holds the full 64-bit head and [tbl_idx.(i)] its
     dense index. Hashing uses the head's low bits (where instruction
     addresses vary); collisions compare the full key. *)
  mutable tbl_keys : int64 array;
  mutable tbl_idx : int array;
  mutable tbl_mask : int;
  mutable n_blocks : int;
  mutable heads : int64 array;
  (* Per-slice accumulation: counts indexed by dense block index, plus a
     stack of indices touched this slice so reset is O(touched). *)
  mutable counts : int array;
  mutable touched : int array;
  mutable n_touched : int;
  (* Instruction counters are plain [int]s on the hot path (converted to
     int64 at the API edge): boxed-int64 arithmetic there would cost an
     allocation per executed block. *)
  mutable slice_icount : int;
  mutable total : int;
  mutable slices_rev : slice list;
  mutable next_index : int;
  (* Per-thread basic-block tracking (dense indices). *)
  mutable cur_idx : int array;
  mutable at_boundary : bool array;
  mutable observer_calls : int;
  slice_limit : int;
  slice_size : int64;
}

let make_state ~slice_size =
  {
    tbl_keys = Array.make 256 0L;
    tbl_idx = Array.make 256 (-1);
    tbl_mask = 255;
    n_blocks = 0;
    heads = Array.make 128 0L;
    counts = Array.make 128 0;
    touched = Array.make 128 0;
    n_touched = 0;
    slice_icount = 0;
    total = 0;
    slices_rev = [];
    next_index = 0;
    cur_idx = Array.make 8 0;
    at_boundary = Array.make 8 true;
    observer_calls = 0;
    slice_limit = Int64.to_int (Int64.min slice_size (Int64.of_int max_int));
    slice_size;
  }

let ensure_tid st tid =
  let n = Array.length st.cur_idx in
  if tid >= n then begin
    (* Geometric growth: amortised O(1) per new thread id. *)
    let cap = max (tid + 1) (2 * n) in
    let cur = Array.make cap 0 in
    let bnd = Array.make cap true in
    Array.blit st.cur_idx 0 cur 0 n;
    Array.blit st.at_boundary 0 bnd 0 n;
    st.cur_idx <- cur;
    st.at_boundary <- bnd
  end

let tbl_grow st =
  let cap = 2 * (st.tbl_mask + 1) in
  let keys = Array.make cap 0L in
  let idxs = Array.make cap (-1) in
  let mask = cap - 1 in
  Array.iteri
    (fun i idx ->
      if idx >= 0 then begin
        let k = st.tbl_keys.(i) in
        let j = ref (Int64.to_int k * 0x5DEECE66D land mask) in
        while idxs.(!j) >= 0 do
          j := (!j + 1) land mask
        done;
        keys.(!j) <- k;
        idxs.(!j) <- idx
      end)
    st.tbl_idx;
  st.tbl_keys <- keys;
  st.tbl_idx <- idxs;
  st.tbl_mask <- mask

let dense_grow st =
  let cap = 2 * Array.length st.heads in
  let heads = Array.make cap 0L in
  let counts = Array.make cap 0 in
  let touched = Array.make cap 0 in
  Array.blit st.heads 0 heads 0 st.n_blocks;
  Array.blit st.counts 0 counts 0 st.n_blocks;
  Array.blit st.touched 0 touched 0 st.n_touched;
  st.heads <- heads;
  st.counts <- counts;
  st.touched <- touched

(* Map a block head to its dense index, interning it on first sight. *)
let intern st block =
  let mask = st.tbl_mask in
  let i = ref (Int64.to_int block * 0x5DEECE66D land mask) in
  let res = ref (-1) in
  while !res < 0 do
    let idx = st.tbl_idx.(!i) in
    if idx >= 0 then
      if Int64.equal st.tbl_keys.(!i) block then res := idx
      else i := (!i + 1) land mask
    else begin
      (* New block head: install at the probe position. *)
      let idx = st.n_blocks in
      if idx >= Array.length st.heads then dense_grow st;
      st.heads.(idx) <- block;
      st.tbl_keys.(!i) <- block;
      st.tbl_idx.(!i) <- idx;
      st.n_blocks <- idx + 1;
      (* Keep load factor at most 1/2 so probe chains stay short. *)
      if 2 * st.n_blocks > mask then tbl_grow st;
      res := idx
    end
  done;
  !res

(* Charge [by] instructions to the dense block index [idx] in the current
   slice: an array bump, plus a push on first touch so the per-slice
   reset only walks blocks that actually ran. *)
let bump st idx by =
  let c = st.counts.(idx) in
  if c = 0 then begin
    st.touched.(st.n_touched) <- idx;
    st.n_touched <- st.n_touched + 1
  end;
  st.counts.(idx) <- c + by

let finish_slice st =
  let pairs =
    Array.init st.n_touched (fun j ->
        let i = st.touched.(j) in
        (st.heads.(i), st.counts.(i)))
  in
  Array.sort (fun (a, _) (b, _) -> Int64.unsigned_compare a b) pairs;
  st.slices_rev <-
    {
      index = st.next_index;
      vector = pairs;
      instructions = Int64.of_int st.slice_icount;
    }
    :: st.slices_rev;
  st.next_index <- st.next_index + 1;
  for j = 0 to st.n_touched - 1 do
    st.counts.(st.touched.(j)) <- 0
  done;
  st.n_touched <- 0;
  st.slice_icount <- 0

let finish st =
  if st.slice_icount > 0 then finish_slice st;
  Elfie_obs.Metrics.inc m_slices ~by:(float_of_int st.next_index);
  Elfie_obs.Metrics.inc m_instructions ~by:(float_of_int st.total);
  if st.observer_calls > 0 then
    Elfie_obs.Metrics.inc m_observer_calls ~by:(float_of_int st.observer_calls);
  {
    slices = List.rev st.slices_rev;
    slice_size = st.slice_size;
    total_instructions = Int64.of_int st.total;
  }

(* --- block-driven collector --------------------------------------------- *)

(* One observer call reports a straight-line run of [n] instructions from a
   translated block's head: every instruction charges to the same block
   head (only the run's last instruction can be a block terminator), and
   thread interleaving only happens between calls. So a call is exactly
   equivalent to [n] per-instruction before-calls for that thread, and
   the only per-instruction work left is splitting the charge where a
   slice boundary falls inside the run. *)
let collector ~slice_size =
  if slice_size <= 0L then invalid_arg "Bbv: slice_size must be positive";
  let st = make_state ~slice_size in
  let observe ~tid ~pcs ~n ~ends_block =
    if n > 0 then begin
      if tid >= Array.length st.cur_idx then ensure_tid st tid;
      st.observer_calls <- st.observer_calls + 1;
      st.total <- st.total + n;
      if st.at_boundary.(tid) then begin
        (* A fresh block; otherwise the run continues a block that was
           interrupted (quantum end, fault, timer) and its instructions
           keep charging to the interrupted block's head. *)
        st.cur_idx.(tid) <- intern st pcs.(0);
        st.at_boundary.(tid) <- false
      end;
      let idx = st.cur_idx.(tid) in
      let filled = st.slice_icount + n in
      if filled < st.slice_limit then begin
        (* Fast path: the whole run lands inside the current slice. *)
        st.slice_icount <- filled;
        bump st idx n
      end
      else begin
        (* A slice boundary falls inside (or at the end of) the run:
           split the charge across slices exactly where per-instruction
           counting would, one piece per slice touched. *)
        let remaining = ref n in
        while !remaining > 0 do
          let room = max 1 (st.slice_limit - st.slice_icount) in
          let m = if !remaining <= room then !remaining else room in
          bump st idx m;
          st.slice_icount <- st.slice_icount + m;
          remaining := !remaining - m;
          if st.slice_icount >= st.slice_limit then finish_slice st
        done
      end;
      if ends_block then st.at_boundary.(tid) <- true
    end
  in
  (observe, fun () -> finish st)

(* --- profiling runs ------------------------------------------------------ *)

let profile ?max_ins spec ~slice_size =
  let observe, finish = collector ~slice_size in
  Elfie_obs.Trace.with_span "bbv.collect" @@ fun sp ->
  let machine, _kernel = Run.instantiate spec in
  (* The machine has a single block-observer slot; keep [--profile]
     working by chaining the global profiler in front of the collector. *)
  let observer =
    match Elfie_obs.Profile.global () with
    | None -> observe
    | Some p ->
        fun ~tid ~pcs ~n ~ends_block ->
          Elfie_obs.Profile.note_block p ~tid ~pcs ~n ~ends_block;
          observe ~tid ~pcs ~n ~ends_block
  in
  Elfie_machine.Machine.set_block_observer machine (Some observer);
  Elfie_machine.Machine.run ?max_ins machine;
  Elfie_machine.Machine.set_block_observer machine None;
  let p = finish () in
  Elfie_obs.Trace.add_attr sp "slices"
    (Elfie_obs.Trace.I (Int64.of_int (List.length p.slices)));
  Elfie_obs.Trace.add_attr sp "instructions"
    (Elfie_obs.Trace.I p.total_instructions);
  p

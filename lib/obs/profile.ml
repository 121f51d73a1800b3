type t = {
  itv : int;
  mutable countdown : int;
  mutable ins : int64;
  mutable nsamples : int64;
  pcs : (int64, int64) Hashtbl.t;
  blocks : (int64, int64) Hashtbl.t;
  mutable cur_block : int64 array;  (* per-tid current block head *)
  mutable at_boundary : bool array;
  (* One profiler (the global slot) may be fed by machines running on
     several pool domains at once; every state mutation and reader
     locks. *)
  lock : Mutex.t;
}

let create ?(interval = 97) () =
  if interval <= 0 then invalid_arg "Profile.create: interval must be positive";
  {
    itv = interval;
    countdown = interval;
    ins = 0L;
    nsamples = 0L;
    pcs = Hashtbl.create 1024;
    blocks = Hashtbl.create 1024;
    cur_block = Array.make 8 0L;
    at_boundary = Array.make 8 true;
    lock = Mutex.create ();
  }

let interval t = t.itv
let[@inline] locked t f = Mutex.protect t.lock f

let ensure_tid t tid =
  let n = Array.length t.cur_block in
  if tid >= n then begin
    let cur = Array.make (tid + 4) 0L in
    let bnd = Array.make (tid + 4) true in
    Array.blit t.cur_block 0 cur 0 n;
    Array.blit t.at_boundary 0 bnd 0 n;
    t.cur_block <- cur;
    t.at_boundary <- bnd
  end

let bump tbl key =
  Hashtbl.replace tbl key
    (Int64.add 1L (Option.value ~default:0L (Hashtbl.find_opt tbl key)))

let bump_by tbl key n =
  Hashtbl.replace tbl key
    (Int64.add n (Option.value ~default:0L (Hashtbl.find_opt tbl key)))

(* Feed a run of [n] instructions [pcs.(0 .. n-1)] executed back to
   back — the machine's block-observer shape. Equivalent, state for
   state, to feeding each pc in order on its own: the run is
   straight-line (a boundary can only fall on its last instruction), so
   all [n] instructions charge to one block head, and the countdown
   sampler fires at the same indices per-instruction feeding would. *)
let note_block t ~tid ~pcs ~n ~ends_block =
  if n > 0 then
    locked t @@ fun () ->
    ensure_tid t tid;
    if t.at_boundary.(tid) then begin
      t.cur_block.(tid) <- Array.unsafe_get pcs 0;
      t.at_boundary.(tid) <- false
    end;
    bump_by t.blocks t.cur_block.(tid) (Int64.of_int n);
    if ends_block then t.at_boundary.(tid) <- true;
    t.ins <- Int64.add t.ins (Int64.of_int n);
    (* Sample indices are countdown-1, countdown-1+itv, ... *)
    let i = ref (t.countdown - 1) in
    if !i >= n then t.countdown <- t.countdown - n
    else begin
      while !i < n do
        t.nsamples <- Int64.add t.nsamples 1L;
        bump t.pcs (Array.unsafe_get pcs !i);
        i := !i + t.itv
      done;
      let last = !i - t.itv in
      t.countdown <- t.itv - (n - 1 - last)
    end

let instructions t = locked t (fun () -> t.ins)
let samples t = locked t (fun () -> t.nsamples)

let top ?(k = 10) tbl =
  Hashtbl.fold (fun pc n acc -> (pc, n) :: acc) tbl []
  |> List.sort (fun (pa, na) (pb, nb) ->
         match Int64.compare nb na with
         | 0 -> Int64.unsigned_compare pa pb
         | c -> c)
  |> List.filteri (fun i _ -> i < k)

let hot_pcs ?k t = locked t (fun () -> top ?k t.pcs)
let hot_blocks ?k t = locked t (fun () -> top ?k t.blocks)

let pct part whole =
  if whole = 0L then 0.0
  else 100.0 *. Int64.to_float part /. Int64.to_float whole

let report ?(k = 10) t =
  locked t @@ fun () ->
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf
       "hot regions: %Ld sample(s) @ every %d ins, %Ld instruction(s), %d \
        distinct pc(s)\n"
       t.nsamples t.itv t.ins (Hashtbl.length t.pcs));
  List.iter
    (fun (pc, n) ->
      Buffer.add_string b
        (Printf.sprintf "  0x%-12Lx %8Ld sample(s)  %5.1f%%\n" pc n
           (pct n t.nsamples)))
    (top ~k t.pcs);
  Buffer.add_string b
    (Printf.sprintf "hot blocks (top %d of %d, by instructions):\n" k
       (Hashtbl.length t.blocks));
  List.iter
    (fun (pc, n) ->
      Buffer.add_string b
        (Printf.sprintf "  0x%-12Lx %8Ld ins        %5.1f%%\n" pc n
           (pct n t.ins)))
    (top ~k t.blocks);
  Buffer.contents b

let reset t =
  locked t @@ fun () ->
  t.countdown <- t.itv;
  t.ins <- 0L;
  t.nsamples <- 0L;
  Hashtbl.reset t.pcs;
  Hashtbl.reset t.blocks;
  Array.fill t.cur_block 0 (Array.length t.cur_block) 0L;
  Array.fill t.at_boundary 0 (Array.length t.at_boundary) true

let global_slot : t option ref = ref None
let set_global p = global_slot := p
let global () = !global_slot

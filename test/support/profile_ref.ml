(* A per-instruction model of {!Elfie_obs.Profile}: the same block
   attribution, count-driven sampling and top-k readers, fed one retired
   instruction at a time. The profiler's block feed
   ([Profile.note_block]) must leave it in the same observable state. *)

type t = {
  interval : int;
  mutable ins : int64;
  mutable samples : int64;
  pcs : (int64, int64) Hashtbl.t;
  blocks : (int64, int64) Hashtbl.t;
  heads : (int, int64) Hashtbl.t;  (* tid -> head of its current block *)
}

let create ~interval =
  {
    interval;
    ins = 0L;
    samples = 0L;
    pcs = Hashtbl.create 64;
    blocks = Hashtbl.create 64;
    heads = Hashtbl.create 8;
  }

let bump tbl key =
  Hashtbl.replace tbl key
    (Int64.succ (Option.value ~default:0L (Hashtbl.find_opt tbl key)))

let note t ~tid ~pc ~block_end =
  let head = Option.value ~default:pc (Hashtbl.find_opt t.heads tid) in
  bump t.blocks head;
  if block_end then Hashtbl.remove t.heads tid
  else Hashtbl.replace t.heads tid head;
  t.ins <- Int64.succ t.ins;
  if Int64.rem t.ins (Int64.of_int t.interval) = 0L then begin
    t.samples <- Int64.succ t.samples;
    bump t.pcs pc
  end

let instructions t = t.ins
let samples t = t.samples

(* By count descending, ties by ascending address. *)
let top ~k tbl =
  Hashtbl.fold (fun key n acc -> (key, n) :: acc) tbl []
  |> List.sort (fun (a, na) (b, nb) ->
         match Int64.compare nb na with
         | 0 -> Int64.unsigned_compare a b
         | c -> c)
  |> List.filteri (fun i _ -> i < k)

let hot_pcs ~k t = top ~k t.pcs
let hot_blocks ~k t = top ~k t.blocks

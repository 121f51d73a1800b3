open Elfie_machine

type t = {
  name : string;
  on_ins : (int -> int64 -> Elfie_isa.Insn.t -> unit) option;
  on_mem_read : (int -> int64 -> int -> unit) option;
  on_mem_write : (int -> int64 -> int -> unit) option;
  on_branch : (int -> int64 -> int64 -> bool -> unit) option;
  on_marker : (int -> Elfie_isa.Insn.t -> unit) option;
  on_thread_start : (int -> unit) option;
  on_thread_exit : (int -> int -> unit) option;
}

let empty ~name =
  {
    name;
    on_ins = None;
    on_mem_read = None;
    on_mem_write = None;
    on_branch = None;
    on_marker = None;
    on_thread_start = None;
    on_thread_exit = None;
  }

(* Chain the callbacks [fs] after [prev], in order. A lone callback is
   installed as it is, and several are composed once here with [seq]
   (run one, then the other), so firing a hook allocates nothing and
   costs no list walk. *)
let chain seq prev fs =
  List.fold_left
    (fun acc f -> Some (match acc with None -> f | Some g -> seq g f))
    prev fs

let seq1 g f a =
  g a;
  f a

let seq2 g f a b =
  g a b;
  f a b

let seq3 g f a b c =
  g a b c;
  f a b c

let seq4 g f a b c d =
  g a b c d;
  f a b c d

let attach machine tools =
  let h = Machine.hooks machine in
  let saved_ins = h.on_ins
  and saved_mr = h.on_mem_read
  and saved_mw = h.on_mem_write
  and saved_br = h.on_branch
  and saved_mk = h.on_marker
  and saved_ts = h.on_thread_start
  and saved_te = h.on_thread_exit in
  let pick f = List.filter_map f tools in
  h.on_ins <- chain seq3 saved_ins (pick (fun t -> t.on_ins));
  h.on_mem_read <- chain seq3 saved_mr (pick (fun t -> t.on_mem_read));
  h.on_mem_write <- chain seq3 saved_mw (pick (fun t -> t.on_mem_write));
  h.on_branch <- chain seq4 saved_br (pick (fun t -> t.on_branch));
  h.on_marker <- chain seq2 saved_mk (pick (fun t -> t.on_marker));
  h.on_thread_start <- chain seq1 saved_ts (pick (fun t -> t.on_thread_start));
  h.on_thread_exit <- chain seq2 saved_te (pick (fun t -> t.on_thread_exit));
  fun () ->
    h.on_ins <- saved_ins;
    h.on_mem_read <- saved_mr;
    h.on_mem_write <- saved_mw;
    h.on_branch <- saved_br;
    h.on_marker <- saved_mk;
    h.on_thread_start <- saved_ts;
    h.on_thread_exit <- saved_te

let attach_from_marker machine tools =
  let detach_tools = ref None in
  let start _ _ =
    if Option.is_none !detach_tools then
      detach_tools := Some (attach machine tools)
  in
  let detach_marker =
    attach machine [ { (empty ~name:"roi-start") with on_marker = Some start } ]
  in
  fun () ->
    Option.iter (fun detach -> detach ()) !detach_tools;
    detach_marker ()

let instruction_counter () =
  let count = ref 0L in
  let tool =
    {
      (empty ~name:"icount") with
      on_ins = Some (fun _ _ _ -> count := Int64.add !count 1L);
    }
  in
  (tool, fun () -> !count)

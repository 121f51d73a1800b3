open Elfie_machine

type t = {
  name : string;
  instrument : (int64 -> Elfie_isa.Insn.t -> Machine.callouts) option;
  on_marker : (int -> Elfie_isa.Insn.t -> unit) option;
  on_thread_start : (int -> unit) option;
  on_thread_exit : (int -> int -> unit) option;
}

let empty ~name =
  {
    name;
    instrument = None;
    on_marker = None;
    on_thread_start = None;
    on_thread_exit = None;
  }

(* Two tools' call-outs for one instruction, the first's before the
   second's; built once per instruction, at translation. *)
let merge (a : Machine.callouts) (b : Machine.callouts) : Machine.callouts =
  let mem x y =
    match (x, y) with
    | None, z | z, None -> z
    | Some f, Some g ->
        Some
          (fun tid k l ->
            f tid k l;
            g tid k l)
  in
  {
    before =
      (match (a.before, b.before) with
      | None, z | z, None -> z
      | Some f, Some g ->
          Some
            (fun tid ->
              f tid;
              g tid));
    read = mem a.read b.read;
    write = mem a.write b.write;
    branch =
      (match (a.branch, b.branch) with
      | None, z | z, None -> z
      | Some f, Some g ->
          Some
            (fun tid taken ->
              f tid taken;
              g tid taken));
  }

(* Chain the callbacks [fs] after [prev], in order, with [seq]; a lone
   callback is installed as it is. *)
let chain seq prev fs =
  List.fold_left
    (fun acc f -> Some (match acc with None -> f | Some g -> seq g f))
    prev fs

let attach machine tools =
  let h = Machine.hooks machine in
  let saved_in = h.instrument
  and saved_mk = h.on_marker
  and saved_ts = h.on_thread_start
  and saved_te = h.on_thread_exit in
  let pick f = List.filter_map f tools in
  h.instrument <-
    chain
      (fun g f pc ins -> merge (g pc ins) (f pc ins))
      saved_in
      (pick (fun t -> t.instrument));
  h.on_marker <-
    chain
      (fun g f tid ins ->
        g tid ins;
        f tid ins)
      saved_mk
      (pick (fun t -> t.on_marker));
  h.on_thread_start <-
    chain
      (fun g f tid ->
        g tid;
        f tid)
      saved_ts
      (pick (fun t -> t.on_thread_start));
  h.on_thread_exit <-
    chain
      (fun g f tid status ->
        g tid status;
        f tid status)
      saved_te
      (pick (fun t -> t.on_thread_exit));
  fun () ->
    h.instrument <- saved_in;
    h.on_marker <- saved_mk;
    h.on_thread_start <- saved_ts;
    h.on_thread_exit <- saved_te

let attach_from_marker ~at_start machine tools =
  let detach_tools = ref None in
  let start tid _ =
    if Option.is_none !detach_tools then begin
      detach_tools := Some (attach machine tools);
      at_start tid
    end
  in
  let detach_marker =
    attach machine [ { (empty ~name:"roi-start") with on_marker = Some start } ]
  in
  fun () ->
    Option.iter (fun detach -> detach ()) !detach_tools;
    detach_marker ()

let thread_executed (th : Machine.thread) =
  match th.Machine.state with
  | Machine.Faulted (Machine.Page_fault { access = Addr_space.Exec; _ }) ->
      th.Machine.retired
  | Faulted _ -> th.Machine.retired + 1
  | Runnable | Exited _ -> th.Machine.retired

let executed machine =
  let n = ref 0 in
  for tid = 0 to Machine.thread_count machine - 1 do
    n := !n + thread_executed (Machine.thread machine tid)
  done;
  !n

let start_roi ~from_marker ~max_ins machine tools =
  if from_marker then begin
    let start = ref None in
    let (_ : unit -> unit) =
      attach_from_marker machine tools ~at_start:(fun _ ->
          (* The marker retires next, and the run stops right after it. *)
          start := Some (executed machine + 1);
          Machine.request_stop machine)
    in
    Machine.run ~max_ins machine;
    if Option.is_some !start then Machine.clear_stop machine;
    !start
  end
  else begin
    let (_ : unit -> unit) = attach machine tools in
    Some (executed machine)
  end

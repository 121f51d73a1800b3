open Elfie_machine
open Elfie_kernel

type stop_reason =
  | Breakpoint of { tid : int; addr : int64 }
  | Step_done of int
  | All_exited
  | Thread_fault of { tid : int; message : string }
  | Budget_exhausted
  | History_begin

let pp_stop fmt = function
  | Breakpoint { tid; addr } ->
      Format.fprintf fmt "breakpoint hit: thread %d at 0x%Lx" tid addr
  | Step_done tid -> Format.fprintf fmt "stepped thread %d" tid
  | All_exited -> Format.fprintf fmt "process exited"
  | Thread_fault { tid; message } ->
      Format.fprintf fmt "thread %d faulted: %s" tid message
  | Budget_exhausted -> Format.fprintf fmt "instruction budget exhausted"
  | History_begin -> Format.fprintf fmt "reached the beginning of history"

(* Copy-on-write waypoint for time travel: the machine snapshot plus a
   kernel clone taken at debugger step [at]. *)
type waypoint = { at : int; wp_snap : Machine.snapshot; wp_kernel : Vkernel.t }

type t = {
  mutable m : Machine.t;
  mutable kernel : Vkernel.t;
  image : Elfie_elf.Image.t;
  bps : (int64, unit) Hashtbl.t;
  mutable current_tid : int;
  initial_tid : int;
  mutable rr_next : int;  (* round-robin cursor *)
  mutable icount : int;  (* debugger steps executed since launch *)
  (* Which thread executed each past step, [0 .. icount); reverse
     execution replays this exact sequence, so reversal is exact even
     when the user hand-stepped arbitrary threads. *)
  mutable hist : int array;
  snap_every : int;
  mutable waypoints : waypoint list;  (* newest first; step 0 always kept *)
}

let max_waypoints = 64

let launch ?(fs_init = fun (_ : Fs.t) -> ()) ?(cwd = "/")
    ?(snapshot_every = 1024) image =
  let seed = 11L in
  let m =
    Machine.create (Machine.Free { seed; quantum_min = 1; quantum_max = 1 })
  in
  let fs = Fs.create () in
  fs_init fs;
  let kernel =
    Vkernel.create ~config:{ Vkernel.default_config with seed; initial_cwd = cwd } fs
  in
  Vkernel.install kernel m;
  let tid, _ = Loader.load kernel m image ~argv:[ "elfie" ] ~env:[] in
  let t =
    {
      m;
      kernel;
      image;
      bps = Hashtbl.create 8;
      current_tid = tid;
      initial_tid = tid;
      rr_next = 0;
      icount = 0;
      hist = Array.make 1024 0;
      snap_every = max 1 snapshot_every;
      waypoints = [];
    }
  in
  (* Waypoint zero: the freshly loaded process, the floor reverse
     execution can always reach. *)
  t.waypoints <-
    [ { at = 0; wp_snap = Machine.snapshot m; wp_kernel = Vkernel.fork kernel } ];
  t

let machine t = t.m
let break_at t addr = Hashtbl.replace t.bps addr ()
let clear_at t addr = Hashtbl.remove t.bps addr

let breakpoints t =
  Hashtbl.fold (fun a () acc -> a :: acc) t.bps [] |> List.sort Int64.unsigned_compare

let break_symbol t name =
  match Elfie_elf.Image.find_symbol t.image name with
  | Some addr ->
      break_at t addr;
      Ok addr
  | None -> Error (Printf.sprintf "no symbol %S in image" name)

let runnable_tids t =
  List.filter_map
    (fun th -> if th.Machine.state = Machine.Runnable then Some th.Machine.tid else None)
    (Machine.threads t.m)

let fault_of th =
  match th.Machine.state with
  | Machine.Faulted f ->
      Some
        (Thread_fault
           { tid = th.Machine.tid; message = Format.asprintf "%a" Machine.pp_fault f })
  | Machine.Runnable | Machine.Exited _ -> None

let push_hist t tid =
  if t.icount >= Array.length t.hist then begin
    let bigger = Array.make (2 * Array.length t.hist) 0 in
    Array.blit t.hist 0 bigger 0 t.icount;
    t.hist <- bigger
  end;
  t.hist.(t.icount) <- tid;
  t.icount <- t.icount + 1

(* Drop a waypoint when over budget: the second-oldest, so step 0 is
   always kept and recent history stays densest. *)
let trim_waypoints t =
  if List.length t.waypoints > max_waypoints then
    match List.rev t.waypoints with
    | oldest :: _ :: rest -> t.waypoints <- List.rev (oldest :: rest)
    | _ -> ()

let maybe_waypoint t =
  if
    t.icount mod t.snap_every = 0
    && (match t.waypoints with w :: _ -> w.at <> t.icount | [] -> true)
  then begin
    t.waypoints <-
      {
        at = t.icount;
        wp_snap = Machine.snapshot t.m;
        wp_kernel = Vkernel.fork t.kernel;
      }
      :: t.waypoints;
    trim_waypoints t
  end

(* Advance exactly one instruction of [tid], reporting faults. *)
let step_tid t tid =
  maybe_waypoint t;
  Machine.step t.m tid;
  push_hist t tid;
  t.current_tid <- tid;
  match fault_of (Machine.thread t.m tid) with
  | Some fault -> fault
  | None -> Step_done tid

let step ?tid t =
  let tid = Option.value ~default:t.current_tid tid in
  if (Machine.thread t.m tid).Machine.state <> Machine.Runnable then
    if runnable_tids t = [] then All_exited
    else step_tid t (List.hd (runnable_tids t))
  else step_tid t tid

let continue_ ?(budget = 50_000_000L) t =
  let executed = ref 0L in
  let rec loop () =
    match runnable_tids t with
    | [] -> All_exited
    | tids ->
        (* Round-robin across runnable threads, one instruction each. *)
        let n = List.length tids in
        let tid = List.nth tids (t.rr_next mod n) in
        t.rr_next <- (t.rr_next + 1) mod max 1 n;
        let rip = Context.rip (Machine.thread t.m tid).Machine.ctx in
        if Hashtbl.mem t.bps rip then begin
          t.current_tid <- tid;
          Breakpoint { tid; addr = rip }
        end
        else if !executed >= budget then Budget_exhausted
        else begin
          executed := Int64.add !executed 1L;
          match step_tid t tid with
          | Step_done _ -> loop ()
          | stop -> stop
        end
  in
  loop ()

let registers t ~tid = (Machine.thread t.m tid).Machine.ctx

let read_mem t addr len =
  match Addr_space.read_bytes (Machine.mem t.m) addr len with
  | b -> Some b
  | exception Addr_space.Fault _ -> None

let disassemble t ~addr ~count =
  match read_mem t addr (count * 16) with
  | None -> []
  | Some buf ->
      List.map
        (fun (off, ins) -> (Int64.add addr (Int64.of_int off), ins))
        (Elfie_isa.Codec.disassemble buf ~off:0 ~count)

let symbols t =
  List.map
    (fun s -> (s.Elfie_elf.Image.sym_name, s.Elfie_elf.Image.value))
    t.image.Elfie_elf.Image.symbols
  |> List.sort (fun (_, a) (_, b) -> Int64.unsigned_compare a b)

let symbol_near t addr =
  List.fold_left
    (fun best (name, value) ->
      if Int64.unsigned_compare value addr <= 0 then Some (name, Int64.sub addr value)
      else best)
    None (symbols t)

(* --- Time travel ------------------------------------------------------- *)

let icount t = t.icount
let waypoint_count t = List.length t.waypoints

(* Materialise the process as it was at debugger step [target]: fork the
   newest waypoint at or below it copy-on-write and deterministically
   replay the recorded thread sequence up to [target]. The stored
   waypoint kernel is forked again so it stays pristine for later
   reversals. Waypoints past [target] describe an abandoned future and
   are dropped, as is the history suffix (both re-record on the next
   forward step). *)
let travel t target =
  let wp =
    List.fold_left
      (fun best w ->
        match best with
        | _ when w.at > target -> best
        | Some b when b.at >= w.at -> best
        | _ -> Some w)
      None t.waypoints
  in
  (* Waypoint zero is never dropped, so there is always one at or below
     any target. *)
  let wp = Option.get wp in
  let m = Machine.fork wp.wp_snap in
  let k = Vkernel.fork wp.wp_kernel in
  Vkernel.install k m;
  for i = wp.at to target - 1 do
    Machine.step m t.hist.(i)
  done;
  t.m <- m;
  t.kernel <- k;
  t.icount <- target;
  t.waypoints <- List.filter (fun w -> w.at <= target) t.waypoints;
  t.rr_next <- 0;
  t.current_tid <- (if target = 0 then t.initial_tid else t.hist.(target - 1))

let reverse_stepi ?(n = 1) t =
  if t.icount = 0 then History_begin
  else begin
    let target = max 0 (t.icount - max 1 n) in
    travel t target;
    if target = 0 then History_begin else Step_done t.current_tid
  end

let reverse_continue t =
  if t.icount = 0 then History_begin
  else begin
    (* Scan the recorded history on a scratch fork of the oldest
       retained waypoint, noting the last pre-step state strictly before
       the current position where the thread about to execute sat on a
       breakpoint — the state forward [continue_] would have stopped
       in. *)
    let oldest =
      List.fold_left
        (fun best w ->
          match best with Some b when b.at <= w.at -> best | _ -> Some w)
        None t.waypoints
      |> Option.get
    in
    let m = Machine.fork oldest.wp_snap in
    let k = Vkernel.fork oldest.wp_kernel in
    Vkernel.install k m;
    let best = ref None in
    for i = oldest.at to t.icount - 1 do
      let tid = t.hist.(i) in
      let rip = Context.rip (Machine.thread m tid).Machine.ctx in
      if Hashtbl.mem t.bps rip then best := Some (i, tid, rip);
      Machine.step m tid
    done;
    match !best with
    | Some (i, tid, addr) ->
        travel t i;
        t.current_tid <- tid;
        Breakpoint { tid; addr }
    | None ->
        travel t oldest.at;
        History_begin
  end

let thread_summary t =
  List.map
    (fun th ->
      let state =
        match th.Machine.state with
        | Machine.Runnable -> "runnable"
        | Exited n -> Printf.sprintf "exited %d" n
        | Faulted f -> Format.asprintf "faulted (%a)" Machine.pp_fault f
      in
      (th.Machine.tid, state, Context.rip th.Machine.ctx))
    (Machine.threads t.m)

open Elfie_machine
open Elfie_kernel

type region = { start : int64; length : int64 }

exception Unsupported of string

type result = { pinball : Elfie_pinball.Pinball.t; reached_end : bool }

(* Page numbers, from an address or from a {!Cache.key} (the address
   shifted right by one). *)
let page_number addr = Int64.to_int (Int64.shift_right_logical addr Addr_space.page_bits)
let page_of_key key = key lsr (Addr_space.page_bits - 1)

(* State of one region currently being recorded. *)
type active = {
  a_name : string;
  a_region : region;
  a_contexts : Context.t array;
  a_snapshot : Addr_space.frozen;
  a_brk : int64;
  a_start_retired : int array;
  a_touched : (int, unit) Hashtbl.t;  (* page numbers *)
  mutable a_injections : (int * Elfie_pinball.Pinball.syscall_entry) list;
      (* (tid, entry), reversed *)
  mutable a_schedule : (int * int) list;  (* reversed *)
}

let entry_of_record (r : Vkernel.syscall_record) =
  {
    Elfie_pinball.Pinball.sys_nr = r.Vkernel.rec_nr;
    sys_args = r.rec_args;
    sys_path = r.rec_path;
    sys_ret = r.rec_ret;
    sys_writes = r.rec_writes;
    sys_reexec = r.rec_reexec;
  }

let finalize machine fat symbols a =
  let n_start = Array.length a.a_contexts in
  let pages =
    let all = Addr_space.frozen_pages a.a_snapshot in
    if fat then all
    else List.filter (fun (addr, _) -> Hashtbl.mem a.a_touched (page_number addr)) all
  in
  let icounts =
    Array.init n_start (fun i ->
        let th = Machine.thread machine i in
        Int64.of_int (th.Machine.retired - a.a_start_retired.(i)))
  in
  let n_threads_end = List.length (Machine.threads machine) in
  let injections = Array.make n_threads_end [] in
  List.iter
    (fun (tid, entry) -> injections.(tid) <- entry :: injections.(tid))
    a.a_injections;
  (* a_injections is reversed, so the per-tid lists come out in order. *)
  let schedule =
    (* Merge adjacent same-thread slices: observation boundaries (other
       regions' starts/ends) cut the recording but carry no meaning. *)
    List.fold_left
      (fun acc slice ->
        match (slice, acc) with
        | (tid, n), (tid', n') :: rest when tid = tid' -> (tid, n + n') :: rest
        | _ -> slice :: acc)
      [] a.a_schedule
  in
  {
    Elfie_pinball.Pinball.name = a.a_name;
    fat;
    contexts = a.a_contexts;
    pages;
    icounts;
    schedule;
    injections;
    brk = a.a_brk;
    symbols;
  }

let activate machine kernel (name, region) =
  let live =
    List.filter (fun th -> th.Machine.state = Machine.Runnable) (Machine.threads machine)
  in
  List.iteri
    (fun i th ->
      if th.Machine.tid <> i then
        raise (Unsupported "thread id gap at region start (a thread exited early)"))
    live;
  {
    a_name = name;
    a_region = region;
    a_contexts = Array.of_list (List.map (fun th -> Context.copy th.Machine.ctx) live);
    a_snapshot = Addr_space.freeze (Machine.mem machine);
    a_brk = Vkernel.brk kernel;
    a_start_retired =
      Array.of_list (List.map (fun th -> th.Machine.retired) (Machine.threads machine));
    a_touched = Hashtbl.create 1024;
    a_injections = [];
    a_schedule = [];
  }

let capture_many ?(fat = true) ?scheduler spec requests =
  let machine, kernel = Run.instantiate ?scheduler spec in
  (* Application symbols travel with the checkpoint (for symbolic
     debugging of the generated ELFies). *)
  let symbols =
    List.map
      (fun s -> (s.Elfie_elf.Image.sym_name, s.Elfie_elf.Image.value))
      spec.Run.image.Elfie_elf.Image.symbols
  in
  let requests =
    List.sort (fun (_, a) (_, b) -> Int64.compare a.start b.start) requests
  in
  (* Boundary events, sorted by position; ends before starts at ties. *)
  let events =
    List.concat_map
      (fun ((_, r) as req) ->
        [ (r.start, `Start req); (Int64.add r.start r.length, `End req) ])
      requests
    |> List.sort (fun (a, ka) (b, kb) ->
           match Int64.compare a b with
           | 0 -> ( match (ka, kb) with
                    | `End _, `Start _ -> -1
                    | `Start _, `End _ -> 1
                    | _ -> 0)
           | c -> c)
  in
  let active : active list ref = ref [] in
  let results = ref [] in
  (* Shared instrumentation, dispatching to every active region: the
     pages of each executed instruction's 16-byte fetch window, and of
     the first and last byte of each data access. *)
  let touch pn = List.iter (fun a -> Hashtbl.replace a.a_touched pn ()) !active in
  let access _ first last =
    touch (page_of_key first);
    touch (page_of_key last)
  in
  let instrument pc _ =
    let p0 = page_number pc and p1 = page_number (Int64.add pc 15L) in
    {
      Machine.before =
        Some
          (fun _ ->
            touch p0;
            touch p1);
      read = Some access;
      write = Some access;
      branch = None;
    }
  in
  let tracker =
    { (Pintool.empty ~name:"pinplay-logger") with instrument = Some instrument }
  in
  (* Only lean regions read the touched pages, so the tracker is
     attached while at least one lean region is recording: fat captures
     and the fast-forward between regions run uninstrumented. *)
  let detach = ref None in
  Vkernel.set_recorder kernel
    (Some
       (fun r ->
         let entry = entry_of_record r in
         List.iter
           (fun a -> a.a_injections <- (r.Vkernel.rec_tid, entry) :: a.a_injections)
           !active));
  (* Drive execution segment by segment between boundaries, slicing the
     machine's global schedule recording per segment. *)
  Machine.set_record_schedule machine true;
  let sched_seen = ref 0 in
  let drain_schedule () =
    let all = Machine.recorded_schedule machine in
    let fresh = List.filteri (fun i _ -> i >= !sched_seen) all in
    sched_seen := List.length all;
    (* Prevent the recorder from merging the next quantum into an entry
       we have already distributed. *)
    Machine.cut_schedule machine;
    List.iter
      (fun a -> a.a_schedule <- List.rev_append fresh a.a_schedule)
      !active
  in
  let ended_early = ref false in
  List.iter
    (fun (pos, event) ->
      if not !ended_early then begin
        Machine.run ~max_ins:pos machine;
        drain_schedule ();
        if Machine.total_retired machine < pos then ended_early := true
      end;
      match event with
      | `Start (name, region) ->
          if !ended_early then
            results := (name, None) :: !results
          else begin
            if (not fat) && Option.is_none !detach then
              detach := Some (Pintool.attach machine [ tracker ]);
            active := activate machine kernel (name, region) :: !active
          end
      | `End (name, _) -> (
          match List.partition (fun a -> a.a_name = name) !active with
          | [ a ], rest ->
              active := rest;
              if List.is_empty rest then begin
                Option.iter (fun d -> d ()) !detach;
                detach := None
              end;
              results :=
                (name, Some (finalize machine fat symbols a, not !ended_early))
                :: !results
          | _ -> ()))
    events;
  Machine.set_record_schedule machine false;
  Vkernel.set_recorder kernel None;
  Option.iter (fun d -> d ()) !detach;
  (* Regions the program never reached are dropped from the batch. *)
  List.rev !results
  |> List.filter_map (fun (name, outcome) ->
         Option.map
           (fun (pinball, reached_end) -> (name, { pinball; reached_end }))
           outcome)

let capture ?fat ?scheduler spec ~name region =
  match capture_many ?fat ?scheduler spec [ (name, region) ] with
  | [ (_, result) ] -> result
  | _ ->
      raise
        (Unsupported
           (Printf.sprintf "program ended before region start %Ld" region.start))

open Elfie_isa
module Machine = Elfie_machine.Machine

type 'a analysis = { tool : Pintool.t; result : unit -> 'a }

let run ?(from_marker = false) ?limit ~max_ins machine tools =
  match Pintool.start_roi ~from_marker ~max_ins machine tools with
  | None -> ()
  | Some _ ->
      let max_ins =
        match limit with
        | None -> max_ins
        | Some limit ->
            (* [limit] past the instructions retired so far, without
               overflowing past [max_ins]. *)
            let retired = Machine.total_retired machine in
            if limit < Int64.sub max_ins retired then Int64.add retired limit
            else max_ins
      in
      Machine.run ~max_ins machine

let klass_name = function
  | Insn.K_alu -> "alu"
  | K_load -> "load"
  | K_store -> "store"
  | K_branch -> "branch"
  | K_call -> "call"
  | K_syscall -> "syscall"
  | K_vector -> "vector"
  | K_other -> "other"

(* --- instruction mix -------------------------------------------------------- *)

type mix = { mix_total : int64; mix_classes : (string * int64) list }

let instruction_mix () =
  let counts : (string, int64 ref) Hashtbl.t = Hashtbl.create 8 in
  (* The class's counter is found once per instruction, at translation. *)
  let instrument _ ins =
    let k = klass_name (Insn.classify ins) in
    let r =
      match Hashtbl.find_opt counts k with
      | Some r -> r
      | None ->
          let r = ref 0L in
          Hashtbl.replace counts k r;
          r
    in
    { Machine.no_callouts with before = Some (fun _ -> r := Int64.add !r 1L) }
  in
  let tool = { (Pintool.empty ~name:"insmix") with instrument = Some instrument } in
  let result () =
    let classes =
      Hashtbl.fold (fun k r acc -> if !r > 0L then (k, !r) :: acc else acc) counts []
      |> List.sort (fun (_, a) (_, b) -> Int64.compare b a)
    in
    {
      mix_total = List.fold_left (fun acc (_, n) -> Int64.add acc n) 0L classes;
      mix_classes = classes;
    }
  in
  { tool; result }

(* --- memory footprint --------------------------------------------------------- *)

(* Bytes per data access of an instruction: every access of one
   instruction has the same width. *)
let access_width (ins : Insn.t) =
  match ins with Insn.Load (w, _, _) | Store (w, _, _) -> Insn.width_bytes w | _ -> 8

type footprint = {
  fp_pages : int;
  fp_lines : int;
  fp_reads : int64;
  fp_writes : int64;
  fp_bytes_read : int64;
  fp_bytes_written : int64;
}

let memory_footprint () =
  let pages = Hashtbl.create 256 in
  let lines = Hashtbl.create 1024 in
  let reads = ref 0L and writes = ref 0L in
  let bytes_read = ref 0L and bytes_written = ref 0L in
  (* [key] is the first byte's {!Elfie_machine.Cache.key}: the address
     shifted right by one, which keeps its page and line. *)
  let touch key =
    Hashtbl.replace pages (key lsr 11) ();
    Hashtbl.replace lines (key lsr 5) ()
  in
  let instrument _ ins =
    let w = Int64.of_int (access_width ins) in
    {
      Machine.no_callouts with
      read =
        Some
          (fun _ key _ ->
            touch key;
            reads := Int64.add !reads 1L;
            bytes_read := Int64.add !bytes_read w);
      write =
        Some
          (fun _ key _ ->
            touch key;
            writes := Int64.add !writes 1L;
            bytes_written := Int64.add !bytes_written w);
    }
  in
  let tool = { (Pintool.empty ~name:"footprint") with instrument = Some instrument } in
  let result () =
    {
      fp_pages = Hashtbl.length pages;
      fp_lines = Hashtbl.length lines;
      fp_reads = !reads;
      fp_writes = !writes;
      fp_bytes_read = !bytes_read;
      fp_bytes_written = !bytes_written;
    }
  in
  { tool; result }

(* --- branch profile ------------------------------------------------------------ *)

type branch_profile = {
  br_executed : int64;
  br_taken : int64;
  br_hottest : (int64 * int) list;
}

let top_n n tbl =
  Hashtbl.fold (fun k v acc -> (k, !v) :: acc) tbl []
  |> List.sort (fun (_, a) (_, b) -> compare b a)
  |> List.filteri (fun i _ -> i < n)

let branch_profile () =
  let executed = ref 0L and taken = ref 0L in
  let sites : (int64, int ref) Hashtbl.t = Hashtbl.create 256 in
  let instrument pc _ =
    {
      Machine.no_callouts with
      branch =
        Some
          (fun _ was_taken ->
            executed := Int64.add !executed 1L;
            if was_taken then taken := Int64.add !taken 1L;
            match Hashtbl.find_opt sites pc with
            | Some r -> incr r
            | None -> Hashtbl.replace sites pc (ref 1));
    }
  in
  let tool = { (Pintool.empty ~name:"branchprof") with instrument = Some instrument } in
  let result () =
    { br_executed = !executed; br_taken = !taken; br_hottest = top_n 10 sites }
  in
  { tool; result }

(* --- block profile ------------------------------------------------------------- *)

type block_profile = { bb_blocks : int; bb_hottest : (int64 * int) list }

let block_profile () =
  let heads : (int64, int ref) Hashtbl.t = Hashtbl.create 256 in
  (* Per thread: whether its next instruction starts a block. *)
  let at_boundary : (int, bool) Hashtbl.t = Hashtbl.create 8 in
  let instrument pc ins =
    let ends =
      match Insn.classify ins with
      | Insn.K_branch | K_call | K_syscall -> true
      | K_alu | K_load | K_store | K_vector | K_other -> false
    in
    {
      Machine.no_callouts with
      before =
        Some
          (fun tid ->
            if Option.value ~default:true (Hashtbl.find_opt at_boundary tid)
            then begin
              match Hashtbl.find_opt heads pc with
              | Some r -> incr r
              | None -> Hashtbl.replace heads pc (ref 1)
            end;
            Hashtbl.replace at_boundary tid ends);
    }
  in
  let tool = { (Pintool.empty ~name:"bbprof") with instrument = Some instrument } in
  let result () =
    { bb_blocks = Hashtbl.length heads; bb_hottest = top_n 10 heads }
  in
  { tool; result }

(* --- hot-region profiler adapter -------------------------------------------- *)

(* Attach the global profiler, if one is installed. Every execution
   front-end (native runner, replayer, simulators' machines) calls this
   after building its machine so `--profile` observes any run.

   Wired through the machine's block observer rather than a before-call
   on every instruction: the observer is fed whole straight-line runs on the hook-free
   translated-block path, so profiling adds no per-instruction call-out
   and keeps a run's translations uninstrumented, and
   [Profile.note_block] reproduces per-instruction feeding
   state-for-state. *)
let attach_global_profile machine =
  match Elfie_obs.Profile.global () with
  | None -> ()
  | Some p ->
      Elfie_machine.Machine.set_block_observer machine
        (Some
           (fun ~tid ~pcs ~n ~ends_block ->
             Elfie_obs.Profile.note_block p ~tid ~pcs ~n ~ends_block))

(* --- printers -------------------------------------------------------------------- *)

let pp_mix fmt m =
  Format.fprintf fmt "@[<v>instruction mix over %Ld instructions:@," m.mix_total;
  List.iter
    (fun (k, n) ->
      Format.fprintf fmt "  %-8s %10Ld (%.1f%%)@," k n
        (100.0 *. Int64.to_float n /. Float.max 1.0 (Int64.to_float m.mix_total)))
    m.mix_classes;
  Format.fprintf fmt "@]"

let pp_footprint fmt f =
  Format.fprintf fmt
    "@[<v>memory footprint: %d pages, %d cache lines@,\
     reads: %Ld (%Ld bytes)  writes: %Ld (%Ld bytes)@]"
    f.fp_pages f.fp_lines f.fp_reads f.fp_bytes_read f.fp_writes f.fp_bytes_written

let pp_branch_profile fmt b =
  Format.fprintf fmt "@[<v>branches: %Ld executed, %Ld taken (%.1f%%)@,"
    b.br_executed b.br_taken
    (100.0 *. Int64.to_float b.br_taken /. Float.max 1.0 (Int64.to_float b.br_executed));
  List.iter
    (fun (pc, n) -> Format.fprintf fmt "  0x%Lx: %d@," pc n)
    b.br_hottest;
  Format.fprintf fmt "@]"

let pp_block_profile fmt b =
  Format.fprintf fmt "@[<v>%d basic blocks; hottest:@," b.bb_blocks;
  List.iter (fun (pc, n) -> Format.fprintf fmt "  0x%Lx: %d@," pc n) b.bb_hottest;
  Format.fprintf fmt "@]"

(* Per-instruction basic-block-vector collection: a before-call on every
   instruction charges it to the head of the block its thread is in.
   The block-driven {!Elfie_pin.Bbv.profile} must produce the same
   profile; bench/main.exe times this tool as the per-instruction
   baseline. *)

module Bbv = Elfie_pin.Bbv
module Insn = Elfie_isa.Insn

let tool ~slice_size =
  let slice_limit = Int64.to_int slice_size in
  let counts : (int64, int ref) Hashtbl.t = Hashtbl.create 256 in
  (* Per thread, the count of the block it is in, or [boundary] when its
     next instruction starts a block. *)
  let boundary = ref 0 in
  let current = ref (Array.make 8 boundary) in
  let slices = ref [] and index = ref 0 in
  let in_slice = ref 0 and total = ref 0 in
  let count_of head =
    match Hashtbl.find_opt counts head with
    | Some c -> c
    | None ->
        let c = ref 0 in
        Hashtbl.add counts head c;
        c
  in
  let finish_slice () =
    let vector =
      Hashtbl.fold
        (fun head c acc -> if !c > 0 then (head, !c) :: acc else acc)
        counts []
      |> Array.of_list
    in
    Array.sort (fun (a, _) (b, _) -> Int64.unsigned_compare a b) vector;
    Hashtbl.iter (fun _ c -> c := 0) counts;
    slices :=
      { Bbv.index = !index; vector; instructions = Int64.of_int !in_slice }
      :: !slices;
    incr index;
    in_slice := 0
  in
  let instrument pc ins =
    let ends =
      match Insn.classify ins with
      | Insn.K_branch | K_call | K_syscall -> true
      | K_alu | K_load | K_store | K_vector | K_other -> false
    in
    (* The count this instruction charges when it starts a block. *)
    let own = count_of pc in
    {
      Elfie_machine.Machine.no_callouts with
      before =
        Some
          (fun tid ->
            if tid >= Array.length !current then
              current :=
                Array.append !current
                  (Array.make (tid + 1 - Array.length !current) boundary);
            let c =
              if !current.(tid) == boundary then own else !current.(tid)
            in
            incr c;
            !current.(tid) <- (if ends then boundary else c);
            incr in_slice;
            incr total;
            if !in_slice >= slice_limit then finish_slice ());
    }
  in
  let finish () =
    if !in_slice > 0 then finish_slice ();
    {
      Bbv.slices = List.rev !slices;
      slice_size;
      total_instructions = Int64.of_int !total;
    }
  in
  ({ (Elfie_pin.Pintool.empty ~name:"bbv") with instrument = Some instrument },
   finish)

let profile_per_ins ?max_ins spec ~slice_size =
  let machine, _kernel = Elfie_pin.Run.instantiate spec in
  let t, finish = tool ~slice_size in
  let detach = Elfie_pin.Pintool.attach machine [ t ] in
  Elfie_machine.Machine.run ?max_ins machine;
  detach ();
  finish ()

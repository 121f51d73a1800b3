(* Work pool on OCaml 5 domains.

   Tasks are drawn from a shared atomic index, so uneven task costs
   balance across workers; results land in a pre-sized array, so output
   order always matches input order regardless of completion order.

   Nested calls never fan out: a [map] issued from inside a worker (for
   example [Perf.whole_program] trials inside a parallel
   [Pipeline.validate] region task) runs sequentially on that worker's
   domain, keeping the total domain count bounded by the outermost
   [jobs] instead of multiplying per level. *)

let default = ref 1
let set_default_jobs n = default := max 1 n
let default_jobs () = !default
let recommended () = Domain.recommended_domain_count ()

(* Domain-local: true while this domain is executing pool tasks. *)
let in_worker : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

exception Task_error of { label : string; index : int; exn : exn }

let () =
  Printexc.register_printer (function
    | Task_error { label; index; exn } ->
        Some
          (Printf.sprintf "task %s (index %d) failed: %s" label index
             (Printexc.to_string exn))
    | _ -> None)

(* Attach the failing item's identity when the caller labelled its
   tasks; a raw re-raise otherwise (historical behavior). *)
let wrap label i e =
  match label with
  | None -> e
  | Some label -> Task_error { label = label i; index = i; exn = e }

let map ?jobs ?label f xs =
  let n = List.length xs in
  let jobs = match jobs with Some j -> max 1 j | None -> !default in
  let jobs = min jobs n in
  if jobs <= 1 || Domain.DLS.get in_worker then
    List.mapi
      (fun i x ->
        match f x with
        | v -> v
        | exception e ->
            let bt = Printexc.get_raw_backtrace () in
            Printexc.raise_with_backtrace (wrap label i e) bt)
      xs
  else begin
    let items = Array.of_list xs in
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let failure = Atomic.make None in
    let work () =
      let continue_ = ref true in
      while !continue_ do
        let i = Atomic.fetch_and_add next 1 in
        if i >= n || Atomic.get failure <> None then continue_ := false
        else
          match f items.(i) with
          | v -> results.(i) <- Some v
          | exception e ->
              let bt = Printexc.get_raw_backtrace () in
              ignore
                (Atomic.compare_and_set failure None
                   (Some (wrap label i e, bt)))
      done
    in
    let worker () =
      Domain.DLS.set in_worker true;
      work ()
    in
    let domains = List.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    (* The calling domain is the remaining worker; restore its flag so
       later top-level maps still parallelise. *)
    Domain.DLS.set in_worker true;
    Fun.protect
      ~finally:(fun () -> Domain.DLS.set in_worker false)
      (fun () ->
        work ();
        List.iter Domain.join domains);
    (match Atomic.get failure with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    Array.to_list
      (Array.map (function Some v -> v | None -> assert false) results)
  end


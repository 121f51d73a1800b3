module Pinball = Elfie_pinball.Pinball
module Replayer = Elfie_pin.Replayer
module Diag = Elfie_util.Diag

(* Turn a replay result into diagnostics. The artifact is the replay
   itself, not a file: "replay:<pinball>". *)
let diags_of_result ~artifact ~what (r : Replayer.result) =
  if r.matched_icounts && r.divergences = 0 then []
  else
    match r.first_divergence with
    | Some d ->
        [
          Diag.f ~artifact Diag.Divergence
            "%s diverged on thread %d at pc 0x%Lx after %Ld instructions: %s"
            what d.div_tid d.div_pc d.div_icount d.div_what;
        ]
    | None ->
        (* divergences > 0 but the recorder lost the first one — still a
           failure, just without a precise location. *)
        [
          Diag.f ~artifact Diag.Divergence
            "%s recorded %d syscall divergence(s)" what r.divergences;
        ]

let constrained (pb : Pinball.t) =
  let artifact = "replay:" ^ pb.name in
  match Replayer.replay ~mode:Replayer.Constrained pb with
  | r -> diags_of_result ~artifact ~what:"constrained replay" r
  | exception e ->
      [
        Diag.f ~artifact Diag.Divergence "constrained replay crashed: %s"
          (Printexc.to_string e);
      ]

let injectionless (pb : Pinball.t) =
  let artifact = "replay:" ^ pb.name in
  let mode = Replayer.Injectionless { seed = 7L; fs_init = (fun _ -> ()) } in
  match Replayer.replay ~mode pb with
  | r ->
      (* Injectionless replay schedules freely, so syscall-ordering noise
         is expected; only the icount contract matters — each thread must
         still retire exactly its recorded count. *)
      if r.matched_icounts then []
      else diags_of_result ~artifact ~what:"injection-less replay" r
  | exception e ->
      [
        Diag.f ~artifact Diag.Divergence "injection-less replay crashed: %s"
          (Printexc.to_string e);
      ]

let cross_check (pb : Pinball.t) =
  match constrained pb with
  | [] -> injectionless pb
  | ds -> ds

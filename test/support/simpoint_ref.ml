(* One slice projected on its own, with sign rows memoised for that
   slice only: what {!Elfie_simpoint.Simpoint.project_profile}, which
   shares the rows across a whole profile, must reproduce per slice. *)

let project ~dims (slice : Elfie_pin.Bbv.slice) =
  (Elfie_simpoint.Simpoint.project_profile ~dims
     {
       Elfie_pin.Bbv.slices = [ slice ];
       slice_size = slice.instructions;
       total_instructions = slice.instructions;
     }).(0)

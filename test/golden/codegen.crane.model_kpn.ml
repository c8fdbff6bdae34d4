(* Kahn process network generated from CAAM model crane.
   One process per actor, one unbounded FIFO per dataflow edge;
   UnitDelay processes prime their channels with the initial
   condition, the KPN analogue of the temporal barrier. *)

module Kpn = Umlfront_dataflow.Kpn
module Sdf = Umlfront_dataflow.Sdf
module Mdl = Umlfront_simulink.Mdl_parser

let rounds = 5

(* Channel names, one per edge of the flattened model: *)
let ch_Position_CPU1_Tsensor_sense = "Position/1->CPU1/Tsensor/sense/1"
let ch_CPU1_Tsensor_sense_CPU1_Tcontrol_sub = "CPU1/Tsensor/sense/1->CPU1/Tcontrol/sub/1"
let ch_CPU1_Tcontrol_sub_CPU1_Tcontrol_control = "CPU1/Tcontrol/sub/1->CPU1/Tcontrol/control/1"
let ch_CPU1_Tcontrol_control_CPU1_Tcontrol_sat = "CPU1/Tcontrol/control/1->CPU1/Tcontrol/sat/1"
let ch_CPU1_Tcontrol_sat_CPU1_Tactuator_drive = "CPU1/Tcontrol/sat/1->CPU1/Tactuator/drive/1"
let ch_CPU1_Tcontrol_sat_CPU1_Tcontrol_Delay1 = "CPU1/Tcontrol/sat/1->CPU1/Tcontrol/Delay1/1"
let ch_CPU1_Tcontrol_Delay1_CPU1_Tcontrol_sub = "CPU1/Tcontrol/Delay1/1->CPU1/Tcontrol/sub/2"
let ch_CPU1_Tactuator_drive_Voltage = "CPU1/Tactuator/drive/1->Voltage/1"

(* The embedded model, reparsed at runtime: *)
let mdl_text = {mdl|Model {
  Name	"crane"
  Solver	"FixedStepDiscrete"
  StopTime	"10"
  System {
    Name	"crane"
    Block {
      BlockType	Inport
      Name	"Position"
      Ports	[0, 1]
      Position	"[40, 40, 70, 54]"
      Port	1
    }
    Block {
      BlockType	SubSystem
      Name	"CPU1"
      Ports	[1, 1]
      Position	"[230, 40, 370, 100]"
      CAAMRole	"cpu"
      System {
        Name	"CPU1"
        Block {
          BlockType	Inport
          Name	"In1"
          Ports	[0, 1]
          Position	"[40, 40, 70, 54]"
          Port	1
        }
        Block {
          BlockType	SubSystem
          Name	"Tsensor"
          Ports	[1, 1]
          Position	"[230, 40, 370, 100]"
          CAAMRole	"thread"
          System {
            Name	"Tsensor"
            Block {
              BlockType	Inport
              Name	"In1"
              Ports	[0, 1]
              Position	"[40, 40, 70, 54]"
              Port	1
            }
            Block {
              BlockType	S-Function
              Name	"sense"
              Ports	[1, 1]
              Position	"[230, 40, 290, 80]"
              FunctionName	"sense"
              Inputs	1
              Outputs	1
            }
            Block {
              BlockType	Outport
              Name	"Out1"
              Ports	[1, 0]
              Position	"[420, 40, 450, 54]"
              Port	1
            }
            Line {
              SrcBlock	"In1"
              SrcPort	1
              DstBlock	"sense"
              DstPort	1
            }
            Line {
              SrcBlock	"sense"
              SrcPort	1
              DstBlock	"Out1"
              DstPort	1
            }
          }
        }
        Block {
          BlockType	SubSystem
          Name	"Tcontrol"
          Ports	[1, 1]
          Position	"[610, 40, 750, 100]"
          CAAMRole	"thread"
          System {
            Name	"Tcontrol"
            Block {
              BlockType	Inport
              Name	"In1"
              Ports	[0, 1]
              Position	"[40, 40, 70, 54]"
              Port	1
            }
            Block {
              BlockType	Sum
              Name	"sub"
              Ports	[2, 1]
              Position	"[230, 40, 290, 80]"
              Inputs	"+-"
            }
            Block {
              BlockType	S-Function
              Name	"control"
              Ports	[1, 1]
              Position	"[420, 40, 480, 80]"
              FunctionName	"control"
              Inputs	1
              Outputs	1
            }
            Block {
              BlockType	Saturate
              Name	"sat"
              Ports	[1, 1]
              Position	"[610, 40, 670, 80]"
              UpperLimit	1
              LowerLimit	-1
            }
            Block {
              BlockType	Outport
              Name	"Out1"
              Ports	[1, 0]
              Position	"[800, 40, 830, 54]"
              Port	1
            }
            Block {
              BlockType	UnitDelay
              Name	"Delay1"
              Ports	[1, 1]
              Position	"[800, 130, 860, 170]"
              InitialCondition	0
            }
            Line {
              SrcBlock	"In1"
              SrcPort	1
              DstBlock	"sub"
              DstPort	1
            }
            Line {
              SrcBlock	"sub"
              SrcPort	1
              DstBlock	"control"
              DstPort	1
            }
            Line {
              SrcBlock	"control"
              SrcPort	1
              DstBlock	"sat"
              DstPort	1
            }
            Line {
              SrcBlock	"sat"
              SrcPort	1
              DstBlock	"Out1"
              DstPort	1
            }
            Line {
              SrcBlock	"sat"
              SrcPort	1
              DstBlock	"Delay1"
              DstPort	1
            }
            Line {
              SrcBlock	"Delay1"
              SrcPort	1
              DstBlock	"sub"
              DstPort	2
            }
          }
        }
        Block {
          BlockType	SubSystem
          Name	"Tactuator"
          Ports	[1, 1]
          Position	"[990, 40, 1130, 100]"
          CAAMRole	"thread"
          System {
            Name	"Tactuator"
            Block {
              BlockType	Inport
              Name	"In1"
              Ports	[0, 1]
              Position	"[40, 40, 70, 54]"
              Port	1
            }
            Block {
              BlockType	S-Function
              Name	"drive"
              Ports	[1, 1]
              Position	"[230, 40, 290, 80]"
              FunctionName	"drive"
              Inputs	1
              Outputs	1
            }
            Block {
              BlockType	Outport
              Name	"Out1"
              Ports	[1, 0]
              Position	"[420, 40, 450, 54]"
              Port	1
            }
            Line {
              SrcBlock	"In1"
              SrcPort	1
              DstBlock	"drive"
              DstPort	1
            }
            Line {
              SrcBlock	"drive"
              SrcPort	1
              DstBlock	"Out1"
              DstPort	1
            }
          }
        }
        Block {
          BlockType	Outport
          Name	"Out1"
          Ports	[1, 0]
          Position	"[1180, 40, 1210, 54]"
          Port	1
        }
        Block {
          BlockType	Channel
          Name	"ch1"
          Ports	[1, 1]
          Position	"[420, 40, 500, 70]"
          Protocol	"SWFIFO"
          CAAMRole	"comm"
        }
        Block {
          BlockType	Channel
          Name	"ch2"
          Ports	[1, 1]
          Position	"[800, 40, 880, 70]"
          Protocol	"SWFIFO"
          CAAMRole	"comm"
        }
        Line {
          SrcBlock	"In1"
          SrcPort	1
          DstBlock	"Tsensor"
          DstPort	1
        }
        Line {
          SrcBlock	"Tactuator"
          SrcPort	1
          DstBlock	"Out1"
          DstPort	1
        }
        Line {
          SrcBlock	"Tsensor"
          SrcPort	1
          DstBlock	"ch1"
          DstPort	1
        }
        Line {
          SrcBlock	"ch1"
          SrcPort	1
          DstBlock	"Tcontrol"
          DstPort	1
        }
        Line {
          SrcBlock	"Tcontrol"
          SrcPort	1
          DstBlock	"ch2"
          DstPort	1
        }
        Line {
          SrcBlock	"ch2"
          SrcPort	1
          DstBlock	"Tactuator"
          DstPort	1
        }
      }
    }
    Block {
      BlockType	Outport
      Name	"Voltage"
      Ports	[1, 0]
      Position	"[420, 40, 450, 54]"
      Port	1
    }
    Line {
      SrcBlock	"Position"
      SrcPort	1
      DstBlock	"CPU1"
      DstPort	1
    }
    Line {
      SrcBlock	"CPU1"
      SrcPort	1
      DstBlock	"Voltage"
      DstPort	1
    }
  }
}
|mdl}

let network () =
  let model = Mdl.parse_string mdl_text in
  Kpn.of_sdf ~rounds (Sdf.of_model model)

let () =
  let outcome = Kpn.run (network ()) in
  List.iter
    (fun (name, value) -> Printf.printf "%s %.9f\n" name value)
    (List.filter
       (fun (name, _) ->
         List.mem name
           ["Voltage"])
       outcome.Kpn.results)

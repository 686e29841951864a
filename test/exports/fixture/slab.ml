include Shapes.Sub
